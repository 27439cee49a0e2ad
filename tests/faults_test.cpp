// Fault-injection layer: plan parsing, deterministic probe sequences,
// scoped arming, and the hardened measurement path. The determinism tests
// are the acceptance gate for replayability: the same (plan, seed, keys)
// must yield a bit-identical fault sequence, run to run and thread
// interleaving to thread interleaving.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "perfmodel/cost_model.hpp"
#include "syclrt/queue.hpp"

namespace aks::faults {
namespace {

TEST(FaultPlan, ParsesCannedNames) {
  EXPECT_FALSE(FaultPlan::parse("none").any_active());
  const auto noise = FaultPlan::parse("timing-noise-heavy");
  EXPECT_TRUE(noise.active(Site::kHostTiming));
  EXPECT_FALSE(noise.active(Site::kKernelLaunch));
  const auto launch = FaultPlan::parse("launch-failure-heavy");
  EXPECT_TRUE(launch.active(Site::kKernelLaunch));
  const auto mixed = FaultPlan::parse("mixed@0.3");
  EXPECT_TRUE(mixed.active(Site::kKernelLaunch));
  EXPECT_TRUE(mixed.active(Site::kHostTiming));
  EXPECT_TRUE(mixed.active(Site::kDatasetRow));
  EXPECT_TRUE(mixed.active(Site::kWarmUpTrial));
}

TEST(FaultPlan, ParsesKeyValueGrammarAndRoundTrips) {
  const auto plan =
      FaultPlan::parse("seed=7,launch=0.1,outlier=0.2,row=0.05,hang-ms=2");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.at(Site::kKernelLaunch).launch_failure, 0.1);
  EXPECT_DOUBLE_EQ(plan.at(Site::kHostTiming).timing_outlier, 0.2);
  EXPECT_DOUBLE_EQ(plan.at(Site::kDatasetRow).corrupt_row, 0.05);
  EXPECT_DOUBLE_EQ(plan.hang_seconds, 2e-3);
  const auto reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("bogus-plan"), common::Error);
  EXPECT_THROW((void)FaultPlan::parse("launch=1.5"), common::Error);
  EXPECT_THROW((void)FaultPlan::parse("mixed@nope"), common::Error);
  // Per-site rates must sum to at most 1 (outlier + nan share a site).
  EXPECT_THROW((void)FaultPlan::parse("outlier=0.6,nan=0.6"), common::Error);
  // A number must be the whole value: never its prefix, never a std::
  // exception.
  for (const char* spec : {"seed=abc", "seed=12x", "seed=-1", "launch=0.1x",
                           "launch=", "mixed@0.3x", "hang-ms=+2"}) {
    EXPECT_THROW((void)FaultPlan::parse(spec), common::Error) << spec;
  }
}

std::vector<FaultKind> probe_sequence(const FaultPlan& plan,
                                      std::uint64_t base_key, int draws) {
  ScopedFaultPlan install(plan);
  std::vector<FaultKind> kinds;
  for (int i = 0; i < draws; ++i) {
    FaultScope scope(site_bit(Site::kHostTiming),
                     mix_key(base_key, static_cast<std::uint64_t>(i)));
    kinds.push_back(probe(Site::kHostTiming).kind);
  }
  return kinds;
}

TEST(FaultInjector, SameSeedSamePlanGivesBitIdenticalSequence) {
  const auto plan = FaultPlan::mixed(0.3, 42);
  const auto a = probe_sequence(plan, 0x5eed, 512);
  const auto b = probe_sequence(plan, 0x5eed, 512);
  EXPECT_EQ(a, b);
  // And the sequence is not degenerate: some faults actually fire.
  EXPECT_GT(std::count_if(a.begin(), a.end(),
                          [](FaultKind k) { return k != FaultKind::kNone; }),
            0);
  // A different seed yields a different sequence.
  auto reseeded = plan;
  reseeded.seed = 43;
  EXPECT_NE(probe_sequence(reseeded, 0x5eed, 512), a);
}

TEST(FaultInjector, SequenceIsIndependentOfThreadInterleaving) {
  const auto plan = FaultPlan::mixed(0.5, 9);
  const auto serial = probe_sequence(plan, 0xabc, 256);
  // Same keys probed from many threads, racing: per-key results must match
  // the serial sequence exactly because decisions are pure in the key.
  ScopedFaultPlan install(plan);
  std::vector<FaultKind> parallel(256, FaultKind::kNone);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < 256; i += 8) {
        FaultScope scope(site_bit(Site::kHostTiming),
                         mix_key(0xabc, static_cast<std::uint64_t>(i)));
        parallel[static_cast<std::size_t>(i)] =
            probe(Site::kHostTiming).kind;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(parallel, serial);
}

TEST(FaultInjector, NoFaultsOutsideArmedScope) {
  ScopedFaultPlan install(FaultPlan::mixed(1.0, 1));
  // No scope at all.
  EXPECT_EQ(probe(Site::kHostTiming).kind, FaultKind::kNone);
  EXPECT_NO_THROW(maybe_inject_launch_fault());
  // A scope that arms a different site.
  FaultScope scope(site_bit(Site::kDatasetRow), 1);
  EXPECT_EQ(probe(Site::kHostTiming).kind, FaultKind::kNone);
  EXPECT_NO_THROW(maybe_inject_launch_fault());
}

TEST(FaultInjector, ScopedNonePinsFaultFreeOverInstalledPlan) {
  ScopedFaultPlan outer(FaultPlan::mixed(1.0, 1));
  {
    ScopedFaultPlan inner(FaultPlan::none());
    FaultScope scope(site_bit(Site::kHostTiming), 1);
    EXPECT_FALSE(plan_active());
    EXPECT_EQ(probe(Site::kHostTiming).kind, FaultKind::kNone);
  }
  EXPECT_TRUE(plan_active());
}

TEST(FaultInjector, OutlierMagnitudesSpanSlowAndFast) {
  FaultPlan plan;
  plan.seed = 3;
  plan.at(Site::kHostTiming).timing_outlier = 1.0;
  ScopedFaultPlan install(plan);
  bool saw_slow = false;
  bool saw_fast = false;
  for (int i = 0; i < 64; ++i) {
    FaultScope scope(site_bit(Site::kHostTiming),
                     static_cast<std::uint64_t>(i));
    const auto fault = probe(Site::kHostTiming);
    ASSERT_EQ(fault.kind, FaultKind::kTimingOutlier);
    ASSERT_GT(fault.magnitude, 0.0);
    if (fault.magnitude > 1.0) saw_slow = true;
    if (fault.magnitude < 1.0) saw_fast = true;
    EXPECT_LE(fault.magnitude, plan.outlier_max_factor);
    EXPECT_GE(fault.magnitude, 1.0 / plan.outlier_max_factor);
  }
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_fast);
}

TEST(Queue, LaunchFaultFiresInsideArmedScope) {
  FaultPlan plan;
  plan.seed = 11;
  plan.at(Site::kKernelLaunch).launch_failure = 1.0;
  ScopedFaultPlan install(plan);

  const gemm::GemmShape shape{16, 16, 16};
  std::vector<float> a(shape.m * shape.k, 1.0f);
  std::vector<float> b(shape.k * shape.n, 1.0f);
  std::vector<float> c(shape.m * shape.n, 0.0f);
  const auto& config = gemm::enumerate_configs()[0];

  syclrt::Queue queue;
  // Unarmed: correctness paths never see the fault even at rate 1.
  EXPECT_NO_THROW((void)gemm::launch_gemm(queue, config, a, b, c, shape));
  // Armed: the launch hook throws deterministically.
  FaultScope scope(site_bit(Site::kKernelLaunch), 0xfeed);
  EXPECT_THROW((void)gemm::launch_gemm(queue, config, a, b, c, shape),
               LaunchFailure);
}

TEST(RobustMeasurement, CellStaysFiniteUnderHeavyFaults) {
  const perf::TimingModel timing(perf::DeviceSpec::amd_r9_nano(), 0.03, 42);
  const auto& config = gemm::enumerate_configs()[100];
  const gemm::GemmShape shape{256, 256, 256};
  data::RunnerOptions options;
  options.iterations = 5;
  options.aggregate = data::RunnerOptions::Aggregate::kMedian;

  ScopedFaultPlan install(FaultPlan::mixed(0.6, 4));
  const auto cell = data::measure_cell_robust(timing, config, shape, options);
  EXPECT_TRUE(std::isfinite(cell.seconds));
  EXPECT_GT(cell.seconds, 0.0);
  EXPECT_GE(cell.attempts, 1);
}

TEST(RobustMeasurement, CellFallsBackToModelWhenEveryLaunchFails) {
  const perf::TimingModel timing(perf::DeviceSpec::amd_r9_nano(), 0.03, 42);
  const auto& config = gemm::enumerate_configs()[0];
  const gemm::GemmShape shape{64, 64, 64};
  FaultPlan plan;
  plan.seed = 5;
  plan.at(Site::kKernelLaunch).launch_failure = 1.0;
  ScopedFaultPlan install(plan);
  const auto cell = data::measure_cell_robust(timing, config, shape);
  EXPECT_TRUE(cell.fell_back);
  EXPECT_GT(cell.launch_failures, 0);
  EXPECT_DOUBLE_EQ(cell.seconds,
                   timing.model().predict_seconds(config, shape));
}

TEST(RobustMeasurement, MeasurementIsDeterministicUnderPlan) {
  const perf::TimingModel timing(perf::DeviceSpec::amd_r9_nano(), 0.03, 42);
  const auto& config = gemm::enumerate_configs()[250];
  const gemm::GemmShape shape{128, 512, 64};
  data::RunnerOptions options;
  options.aggregate = data::RunnerOptions::Aggregate::kTrimmedMean;

  const auto run = [&] {
    ScopedFaultPlan install(FaultPlan::timing_noise_heavy(0.4, 13));
    return data::measure_cell_robust(timing, config, shape, options);
  };
  const auto first = run();
  const auto second = run();
  // Bit-identical, not approximately equal: the whole point of the layer.
  EXPECT_EQ(first.seconds, second.seconds);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.nan_samples, second.nan_samples);
  EXPECT_EQ(first.outliers_rejected, second.outliers_rejected);
}

}  // namespace
}  // namespace aks::faults
