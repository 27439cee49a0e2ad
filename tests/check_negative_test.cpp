// Planted-bug coverage for the akscheck analysis layer: each test builds a
// toy kernel with one deliberate defect and asserts the checker reports it
// with the right diagnostic class — and that the corrected twin runs clean.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/checked_buffer.hpp"
#include "check/config_lint.hpp"
#include "check/diagnostics.hpp"
#include "gemm/access_metadata.hpp"
#include "syclrt/queue.hpp"

namespace {

using namespace aks;
using check::AccessMonitor;
using check::CheckedAccessor;
using check::CheckedBuffer;
using check::DiagnosticKind;

bool has_kind(const AccessMonitor& monitor, DiagnosticKind kind) {
  return std::any_of(
      monitor.findings().begin(), monitor.findings().end(),
      [kind](const check::Diagnostic& d) { return d.kind == kind; });
}

std::size_t count_kind(const AccessMonitor& monitor, DiagnosticKind kind) {
  return static_cast<std::size_t>(std::count_if(
      monitor.findings().begin(), monitor.findings().end(),
      [kind](const check::Diagnostic& d) { return d.kind == kind; }));
}

syclrt::Queue replay_queue() {
  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  return queue;
}

// --- out-of-bounds ----------------------------------------------------------

TEST(CheckNegative, OffByOneWriteIsReportedAsOutOfBounds) {
  AccessMonitor monitor("toy_oob");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  // Classic off-by-one: the last item writes one element past the buffer.
  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>& item) {
        const std::size_t i = item.get_global_id(0);
        acc[i + 1] = 1.0f;
      });

  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::out_of_bounds));
  const auto& findings = monitor.findings();
  const auto oob = std::find_if(
      findings.begin(), findings.end(), [](const check::Diagnostic& d) {
        return d.kind == DiagnosticKind::out_of_bounds;
      });
  ASSERT_NE(oob, findings.end());
  EXPECT_EQ(oob->buffer, "C");
  EXPECT_EQ(oob->index, 8u);  // first index past the 8-element buffer
  EXPECT_EQ(oob->kernel, "toy_oob");
}

TEST(CheckNegative, InBoundsTwinRunsClean) {
  AccessMonitor monitor("toy_oob_fixed");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>& item) {
        acc[item.get_global_id(0)] = 1.0f;
      });

  EXPECT_TRUE(monitor.clean());
}

TEST(CheckNegative, OutOfBoundsAccessIsRedirectedSoReplayContinues) {
  AccessMonitor monitor("toy_oob_sink");
  CheckedBuffer<float> c("C", 4, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(4), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>& item) {
        acc[item.get_global_id(0) + 100] = 7.0f;  // far out of bounds
      });

  // The storage itself must be untouched — writes went to the sink.
  for (const float v : c.host()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(count_kind(monitor, DiagnosticKind::out_of_bounds), 4u);
}

// --- unguarded tail ---------------------------------------------------------

TEST(CheckNegative, MissingTailGuardIsReported) {
  // Logical range 10 padded to 16: items 10..15 are tail items. The buffer
  // is sized for the padded launch so the tail access is in bounds — the
  // defect is purely the missing in_range() guard.
  AccessMonitor monitor("toy_tail");
  CheckedBuffer<float> c("C", 16, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(10), syclrt::Range<1>(8)),
      [acc](const syclrt::NdItem<1>& item) {
        acc[item.get_global_id(0)] = 2.0f;  // no guard
      });

  EXPECT_EQ(count_kind(monitor, DiagnosticKind::tail_unguarded), 6u);
  EXPECT_FALSE(has_kind(monitor, DiagnosticKind::out_of_bounds));
}

TEST(CheckNegative, GuardedTailRunsClean) {
  AccessMonitor monitor("toy_tail_fixed");
  CheckedBuffer<float> c("C", 16, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(10), syclrt::Range<1>(8)),
      [acc](const syclrt::NdItem<1>& item) {
        if (!item.in_range()) return;
        acc[item.get_global_id(0)] = 2.0f;
      });

  EXPECT_TRUE(monitor.clean());
}

TEST(CheckNegative, TailAccessAfterConsultingGuardIsNotFlagged) {
  // A kernel that queries in_range() and then (deliberately) writes a
  // scratch slot anyway has made an informed access — SYCL-DNN kernels do
  // this to keep control flow uniform. Only *unconsulted* tails are bugs.
  AccessMonitor monitor("toy_tail_consulted");
  CheckedBuffer<float> c("C", 16, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(10), syclrt::Range<1>(8)),
      [acc](const syclrt::NdItem<1>& item) {
        const bool live = item.in_range();
        acc[item.get_global_id(0)] = live ? 2.0f : 0.0f;
      });

  EXPECT_FALSE(has_kind(monitor, DiagnosticKind::tail_unguarded));
}

// --- cross-group races ------------------------------------------------------

TEST(CheckNegative, CrossGroupWriteWriteRaceIsReported) {
  AccessMonitor monitor("toy_ww_race");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  // Every item writes element 0; with two work-groups this is a
  // cross-group write/write conflict.
  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>&) { acc[0] = 3.0f; });

  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::write_write_race));
  const auto& findings = monitor.findings();
  const auto race = std::find_if(
      findings.begin(), findings.end(), [](const check::Diagnostic& d) {
        return d.kind == DiagnosticKind::write_write_race;
      });
  ASSERT_NE(race, findings.end());
  EXPECT_EQ(race->index, 0u);
  EXPECT_EQ(race->group_a, 0u);
  EXPECT_EQ(race->group_b, 1u);
}

TEST(CheckNegative, IntraGroupWriteReuseIsNotARace) {
  // The same shared-element pattern inside ONE work-group is fine: items of
  // a group run sequentially (SYCL guarantees coherence within a group).
  AccessMonitor monitor("toy_ww_one_group");
  CheckedBuffer<float> c("C", 4, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(4), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>&) { acc[0] = 3.0f; });

  EXPECT_TRUE(monitor.clean());
}

TEST(CheckNegative, CrossGroupReadWriteRaceIsReported) {
  AccessMonitor monitor("toy_rw_race");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  auto acc = c.write();
  auto racc = c.read();

  // Each item writes its own slot, then reads a slot owned by the other
  // work-group — an unsynchronised cross-group dependence.
  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      [acc, racc](const syclrt::NdItem<1>& item) {
        const std::size_t i = item.get_global_id(0);
        acc[i] = static_cast<float>(i);
        (void)racc[(i + 4) % 8];
      });

  EXPECT_TRUE(has_kind(monitor, DiagnosticKind::read_write_race));
  EXPECT_FALSE(has_kind(monitor, DiagnosticKind::write_write_race));
}

TEST(CheckNegative, DisjointGroupsRunClean) {
  AccessMonitor monitor("toy_disjoint");
  CheckedBuffer<float> a("A", 8, monitor, 1.0f);
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  auto racc = a.read();
  auto wacc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      [racc, wacc](const syclrt::NdItem<1>& item) {
        const std::size_t i = item.get_global_id(0);
        wacc[i] = racc[i] * 2.0f;
      });

  EXPECT_TRUE(monitor.clean());
}

// --- kernels with a work-group entry ----------------------------------------
// The tiled GEMM kernels run as work-group entries: the executor calls them
// once per group and they make several passes over its items, one run of
// adjacent items at a time. The replay must still attribute each access to
// the item, or the run, and the group that made it.

/// Counts its groups, then in each of two passes writes the slot that
/// `slot(item)` names, consulting in_range() first when `guarded`.
template <typename Slot>
struct TwoPassKernel {
  CheckedAccessor<float> out;
  Slot slot;
  bool guarded;
  std::size_t* groups;

  void operator()(const syclrt::WorkGroup<1>& group) const {
    ++*groups;
    for (int pass = 0; pass < 2; ++pass) {
      group.parallel_for_work_item([&](const syclrt::NdItem<1>& item) {
        if (guarded && !item.in_range()) return;
        out[slot(item)] = static_cast<float>(pass);
      });
    }
  }
};

TEST(CheckNegative, WorkGroupEntryMissingTailGuardIsReported) {
  // Logical range 6 padded to 8: items 6 and 7 of group 1 are tail items,
  // and each of them writes in both passes without a guard.
  AccessMonitor monitor("toy_group_tail");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  std::size_t groups = 0;
  const auto own = [](const syclrt::NdItem<1>& item) {
    return item.get_global_id(0);
  };

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(6), syclrt::Range<1>(4)),
      TwoPassKernel<decltype(own)>{c.write(), own, false, &groups});

  EXPECT_EQ(groups, 2u);
  EXPECT_EQ(count_kind(monitor, DiagnosticKind::tail_unguarded), 2u);
  for (const auto& finding : monitor.findings()) {
    EXPECT_EQ(finding.kind, DiagnosticKind::tail_unguarded);
    EXPECT_EQ(finding.group_b, 1u);
    EXPECT_GE(finding.index, 6u);
  }
}

TEST(CheckNegative, WorkGroupEntryGuardedTailRunsClean) {
  AccessMonitor monitor("toy_group_tail_fixed");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  std::size_t groups = 0;
  const auto own = [](const syclrt::NdItem<1>& item) {
    return item.get_global_id(0);
  };

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(6), syclrt::Range<1>(4)),
      TwoPassKernel<decltype(own)>{c.write(), own, true, &groups});

  EXPECT_EQ(groups, 2u);
  EXPECT_TRUE(monitor.clean());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(c.host()[i], 1.0f);
}

TEST(CheckNegative, WorkGroupEntryCrossGroupWriteIsARace) {
  // Every item of both groups writes element 0 in both passes. Within a
  // group that is reuse; across the two groups it is a write/write race.
  AccessMonitor monitor("toy_group_ww_race");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  std::size_t groups = 0;
  const auto shared = [](const syclrt::NdItem<1>&) { return std::size_t{0}; };

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(8), syclrt::Range<1>(4)),
      TwoPassKernel<decltype(shared)>{c.write(), shared, true, &groups});

  EXPECT_EQ(groups, 2u);
  EXPECT_EQ(count_kind(monitor, DiagnosticKind::write_write_race), 1u);
  const auto& findings = monitor.findings();
  const auto race = std::find_if(
      findings.begin(), findings.end(), [](const check::Diagnostic& d) {
        return d.kind == DiagnosticKind::write_write_race;
      });
  ASSERT_NE(race, findings.end());
  EXPECT_EQ(race->index, 0u);
  EXPECT_EQ(race->group_a, 0u);
  EXPECT_EQ(race->group_b, 1u);
}

/// The runs counterpart of TwoPassKernel: counts its runs, then in each of
/// two passes every run writes the slots of its items, consulting
/// in_range() on its first item first when `guarded`.
struct TwoPassRunKernel {
  CheckedAccessor<float> out;
  bool guarded;
  std::size_t* runs;

  void operator()(const syclrt::WorkGroup<1>& group) const {
    for (int pass = 0; pass < 2; ++pass) {
      group.parallel_for_work_item_runs(
          [&](const syclrt::NdItem<1>& first, std::size_t count) {
            ++*runs;
            if (guarded && !first.in_range()) return;
            for (std::size_t i = 0; i < count; ++i)
              out[first.get_global_id(0) + i] = static_cast<float>(pass);
          });
    }
  }
};

TEST(CheckNegative, WorkItemRunMissingTailGuardIsReported) {
  // Logical range 6 padded to 8: group 1 splits into the run {4, 5} inside
  // the range and the run {6, 7} outside it, which writes in both passes
  // without a guard.
  AccessMonitor monitor("toy_run_tail");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  std::size_t runs = 0;

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(6), syclrt::Range<1>(4)),
      TwoPassRunKernel{c.write(), false, &runs});

  EXPECT_EQ(runs, 6u);  // three runs per pass
  EXPECT_EQ(count_kind(monitor, DiagnosticKind::tail_unguarded), 2u);
  for (const auto& finding : monitor.findings()) {
    EXPECT_EQ(finding.kind, DiagnosticKind::tail_unguarded);
    EXPECT_EQ(finding.group_b, 1u);
    EXPECT_GE(finding.index, 6u);
  }
}

TEST(CheckNegative, WorkItemRunGuardedTailRunsClean) {
  AccessMonitor monitor("toy_run_tail_fixed");
  CheckedBuffer<float> c("C", 8, monitor);
  auto queue = replay_queue();
  std::size_t runs = 0;

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(6), syclrt::Range<1>(4)),
      TwoPassRunKernel{c.write(), true, &runs});

  EXPECT_EQ(runs, 6u);
  EXPECT_TRUE(monitor.clean());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(c.host()[i], 1.0f);
  for (std::size_t i = 6; i < 8; ++i) EXPECT_EQ(c.host()[i], 0.0f);
}

// --- invalid configurations (static lint) -----------------------------------

TEST(CheckNegative, OversizedWorkGroupIsRejected) {
  gemm::KernelConfig config;
  config.wg_rows = 48;
  config.wg_cols = 48;  // 2304 items, over every device's 256 limit
  const auto findings =
      check::lint_config(config, 0, perf::DeviceSpec::amd_r9_nano());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, check::LintRule::work_group_size);
  EXPECT_EQ(findings[0].to_diagnostic().kind,
            DiagnosticKind::invalid_config);
}

TEST(CheckNegative, NonVectorizableAccSizeIsRejected) {
  gemm::KernelConfig config;
  config.acc_size = 6;  // neither divides nor is divided by vector width 4
  const auto findings =
      check::lint_config(config, 0, perf::DeviceSpec::integrated_gpu());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, check::LintRule::vector_width);
}

TEST(CheckNegative, LocalMemoryOverflowIsRejected) {
  gemm::KernelConfig config;
  config.row_tile = 8;
  config.col_tile = 8;
  config.acc_size = 8;
  config.wg_rows = 16;
  config.wg_cols = 16;
  perf::DeviceSpec tiny = perf::DeviceSpec::embedded_accelerator();
  tiny.local_memory_bytes = 1024;  // model a scratchpad-poor part
  tiny.max_work_group_size = 4096;  // isolate the local-memory rule
  const auto findings = check::lint_config(config, 0, tiny);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, check::LintRule::local_memory);
  EXPECT_GT(gemm::tiled_access_pattern(config).local_memory_bytes,
            tiny.local_memory_bytes);
}

TEST(CheckNegative, ShippedConfigIsAccepted) {
  gemm::KernelConfig config;  // defaults: t1x1_a1_wg8x8
  for (const auto& device :
       {perf::DeviceSpec::amd_r9_nano(), perf::DeviceSpec::embedded_accelerator(),
        perf::DeviceSpec::integrated_gpu()}) {
    EXPECT_TRUE(check::lint_config(config, 0, device).empty())
        << "on " << device.name;
  }
}

// --- monitor mechanics ------------------------------------------------------

TEST(CheckNegative, DuplicateFindingsAreDeduplicated) {
  AccessMonitor monitor("toy_dedup");
  CheckedBuffer<float> c("C", 4, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  // The same out-of-bounds element is hit by every item of one group; one
  // report describes the bug, repeats add nothing.
  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(4), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>&) { acc[4] = 1.0f; });

  EXPECT_EQ(count_kind(monitor, DiagnosticKind::out_of_bounds), 1u);
}

TEST(CheckNegative, FindingCapIsEnforcedWithDroppedCounter) {
  AccessMonitor monitor("toy_cap", /*max_findings=*/2);
  CheckedBuffer<float> c("C", 4, monitor);
  auto queue = replay_queue();
  auto acc = c.write();

  queue.parallel_for(
      syclrt::NdRange<1>(syclrt::Range<1>(4), syclrt::Range<1>(4)),
      [acc](const syclrt::NdItem<1>& item) {
        acc[4 + item.get_global_id(0)] = 1.0f;  // 4 distinct OOB indices
      });

  EXPECT_EQ(monitor.findings().size(), 2u);
  EXPECT_EQ(monitor.dropped(), 2u);
  EXPECT_FALSE(monitor.clean());
}

}  // namespace
