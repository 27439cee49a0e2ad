// Serving-stack fault tolerance under concurrency: N threads hammer
// SelectionService::select() while ~30% of warm-up trials fail by injected
// fault. The degradation contract under test: select() never throws, warm-up
// sweeps stay exactly-once per shape (single-flight), every answer is a
// member of the candidate set, and quarantined configurations never win.
//
// Suite names reuse SelectionService / OnlineTunerConcurrency so the CI
// tsan job's filter picks these up (data races here are exactly what TSan
// is pointed at).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "faults/injector.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"

namespace aks::serve {
namespace {

select::OnlineTuner::TimerFn model_timer() {
  return [timing = perf::TimingModel(perf::DeviceSpec::amd_r9_nano(), 0.0)](
             const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
    return timing.best_of(config, shape, 3);
  };
}

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {48 + 32 * i, 96 + 16 * ((i * 5) % 13), 48 + 64 * ((i * 3) % 7)});
  }
  return shapes;
}

// 30% of warm-up trials fail (launch-failure at the warm-up site only, so
// the failure mode is a thrown exception inside the tuner's trial loop).
faults::FaultPlan warmup_failure_plan(double rate = 0.3) {
  faults::FaultPlan plan;
  plan.seed = 77;
  plan.at(faults::Site::kWarmUpTrial).launch_failure = rate;
  return plan;
}

TEST(SelectionService, NeverThrowsUnderInjectedWarmUpFailures) {
  faults::ScopedFaultPlan install(warmup_failure_plan(0.3));
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  select::OnlineTuner tuner(candidates, model_timer());
  ServiceOptions options;
  options.fallback = tuner.fallback_config();
  SelectionService service(tuner, options);

  const auto shapes = test_shapes(24);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 6;
  std::atomic<std::size_t> throws{0};
  // winners[t][s]: what thread t observed for shape s on its last repeat.
  std::vector<std::vector<std::size_t>> winners(
      kThreads, std::vector<std::size_t>(shapes.size(), 0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          try {
            winners[t][s] = gemm::config_index(service.select(shapes[s]));
          } catch (...) {
            throws.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(throws.load(), 0u) << "select() must never throw under faults";

  const auto stats = service.stats();
  EXPECT_EQ(stats.duplicate_sweeps, 0u) << "single-flight broke under faults";
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced_waits,
            kThreads * kRepeats * shapes.size())
      << "every request accounted as hit, miss or coalesced wait";

  // The service caches one decision per shape, so every thread saw the
  // same config for it — even though quarantine can change what a later
  // sweep of the same shape would pick.
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(winners[t][s], winners[0][s])
          << "threads disagree on shape " << shapes[s].to_string();
    }
  }

  // Every answer is a real member of the candidate set, and no quarantined
  // candidate ever won a shape.
  const std::set<std::size_t> allowed(candidates.begin(), candidates.end());
  const auto quarantined_list = tuner.quarantined();
  const std::set<std::size_t> quarantined(quarantined_list.begin(),
                                          quarantined_list.end());
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      EXPECT_TRUE(allowed.count(winners[t][s]) != 0)
          << "shape " << s << " resolved outside the candidate set";
      if (winners[t][s] != candidates.front()) {
        EXPECT_TRUE(quarantined.count(winners[t][s]) == 0)
            << "quarantined config " << winners[t][s] << " won shape " << s;
      }
    }
  }
  // The fallback candidate is immune to quarantine by construction.
  EXPECT_FALSE(tuner.is_quarantined(candidates.front()));
}

TEST(SelectionService, FallbackServedToLeaderAndWaitersOnTotalFailure) {
  // Every warm-up throws (a warm-up procedure with no internal recovery,
  // failed by an injected fault at rate 1): with ServiceOptions::fallback
  // set, the leader and every coalesced waiter get the fallback config, not
  // the exception — and the shape is retried (not cached) afterwards.
  faults::ScopedFaultPlan install(warmup_failure_plan(1.0));
  const auto fallback = gemm::enumerate_configs()[42];
  ServiceOptions options;
  options.fallback = fallback;
  SelectionService service(
      [](const gemm::GemmShape& shape) -> gemm::KernelConfig {
        faults::FaultScope scope(
            faults::site_bit(faults::Site::kWarmUpTrial),
            faults::mix_key(shape.m, shape.k, shape.n));
        if (faults::probe(faults::Site::kWarmUpTrial)) {
          throw faults::LaunchFailure("injected warm-up failure");
        }
        return gemm::enumerate_configs()[0];
      },
      options);

  const auto shapes = test_shapes(6);
  std::atomic<std::size_t> throws{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (const auto& shape : shapes) {
        try {
          const auto config = service.select(shape);
          EXPECT_EQ(gemm::config_index(config), gemm::config_index(fallback));
        } catch (...) {
          throws.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(throws.load(), 0u);
  const auto stats = service.stats();
  EXPECT_GT(stats.warmup_failures, 0u);
  EXPECT_GT(stats.fallbacks_served, 0u);
  // Failed warm-ups are never cached: the map holds no poisoned entries.
  EXPECT_EQ(stats.cached_shapes, 0u);
}

TEST(SelectionService, NoFallbackConfiguredStillPropagatesErrors) {
  // The pre-existing contract (FailedWarmUpPropagatesAndRetries) must
  // survive the fallback feature: without ServiceOptions::fallback the
  // error reaches the caller.
  SelectionService service(
      [](const gemm::GemmShape&) -> gemm::KernelConfig {
        throw common::Error("warm-up exploded");
      });
  EXPECT_THROW((void)service.select({32, 32, 32}), common::Error);
}

TEST(SelectionService, BatchWaveFaultDegradesOnlyFailingShape) {
  // One shape inside a cold select_batch() wave fails its warm-up: only
  // that shape is served the fallback, every other wave member gets its
  // tuned answer, and the degraded shape is neither cached nor persisted —
  // the store's write-behind wave holds records for the healthy shapes
  // only.
  faults::ScopedFaultPlan install(warmup_failure_plan(1.0));
  const auto shapes = test_shapes(8);
  const auto& bad = shapes[3];
  const auto fallback = gemm::enumerate_configs()[42];

  ServiceOptions options;
  options.fallback = fallback;
  SelectionService service(
      [&bad](const gemm::GemmShape& shape) -> gemm::KernelConfig {
        if (shape == bad) {
          faults::FaultScope scope(
              faults::site_bit(faults::Site::kWarmUpTrial),
              faults::mix_key(shape.m, shape.k, shape.n));
          if (faults::probe(faults::Site::kWarmUpTrial)) {
            throw faults::LaunchFailure("injected warm-up failure");
          }
        }
        const auto& configs = gemm::enumerate_configs();
        return configs[(shape.m * 31 + shape.k * 7 + shape.n) %
                       configs.size()];
      },
      options);

  const auto store_path = std::filesystem::temp_directory_path() /
                          "aks_batch_wave_fault.journal";
  std::filesystem::remove(store_path);
  store::SelectionStore store(store_path);
  (void)service.warm_start(store, perf::DeviceSpec::amd_r9_nano());

  const auto out = service.select_batch(shapes);
  ASSERT_EQ(out.size(), shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& configs = gemm::enumerate_configs();
    const auto expected =
        s == 3 ? fallback
               : configs[(shapes[s].m * 31 + shapes[s].k * 7 + shapes[s].n) %
                         configs.size()];
    EXPECT_EQ(gemm::config_index(out[s]), gemm::config_index(expected))
        << "shape " << s << " got the wrong answer";
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.warmup_failures, 1u);
  EXPECT_EQ(stats.fallbacks_served, 1u);
  EXPECT_EQ(stats.batch_wave_shapes, shapes.size());
  // The degraded shape is not cached: a later request retries its warm-up.
  EXPECT_EQ(stats.cached_shapes, shapes.size() - 1);

  // Nothing degraded is persisted: the wave's one write-behind enqueue
  // carries the seven healthy records and no record for the failed shape.
  const auto records = store.selections();
  EXPECT_EQ(records.size(), shapes.size() - 1);
  for (const auto& record : records) {
    EXPECT_FALSE(record.shape == bad)
        << "fallback decision leaked into the store";
  }
  std::filesystem::remove(store_path);
}

TEST(OnlineTunerConcurrency, QuarantineEngagesAfterConsecutiveFailures) {
  // Candidate trials all fail (rate 1 at the warm-up site): the third
  // failing sweep (select::kQuarantineThreshold) quarantines every
  // non-fallback candidate, sweep() serves the fallback without throwing,
  // and the quarantine list excludes the fallback.
  static_assert(select::kQuarantineThreshold == 3);
  faults::ScopedFaultPlan install(warmup_failure_plan(1.0));
  const std::vector<std::size_t> candidates = {5, 200, 450};
  select::OnlineTuner tuner(candidates, model_timer());

  const auto shapes = test_shapes(5);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    gemm::KernelConfig config{};
    EXPECT_NO_THROW(config = tuner.sweep(shapes[i]));
    EXPECT_EQ(gemm::config_index(config), candidates.front());
    EXPECT_EQ(tuner.quarantined().empty(), i + 1 < select::kQuarantineThreshold)
        << "after sweep " << i + 1;
  }
  EXPECT_EQ(tuner.degraded_selects(), shapes.size());
  EXPECT_GT(tuner.trial_failures(), 0u);
  const auto quarantined = tuner.quarantined();
  EXPECT_EQ(quarantined, (std::vector<std::size_t>{200, 450}));
  EXPECT_FALSE(tuner.is_quarantined(candidates.front()));
}

TEST(OnlineTunerConcurrency, QuarantineRecoversWhenFaultsStop) {
  // One failing sweep stays below select::kQuarantineThreshold.
  const std::vector<std::size_t> candidates = {5, 200, 450};
  select::OnlineTuner tuner(candidates, model_timer());
  {
    faults::ScopedFaultPlan install(warmup_failure_plan(1.0));
    (void)tuner.sweep({64, 64, 64});
  }
  // Plan gone: the next sweep runs cleanly and failure streaks reset.
  const auto config = tuner.sweep({96, 96, 96});
  EXPECT_LT(gemm::config_index(config), gemm::enumerate_configs().size());
  EXPECT_TRUE(tuner.quarantined().empty());
}

}  // namespace
}  // namespace aks::serve
