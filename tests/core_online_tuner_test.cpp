// OnlineTuner thread-safety: the tuner's statistics and candidate health
// used to be plain fields mutated without synchronization, so concurrent
// calls were a data race. These tests pin down the repaired contract:
// single-threaded accounting is exact, and concurrent sweeps agree on a
// shape's winner with every sweep counted. They run under ThreadSanitizer
// in CI (the tsan job) to keep the race fixed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "perfmodel/cost_model.hpp"

namespace aks::select {
namespace {

OnlineTuner::TimerFn model_timer() {
  return [timing = perf::TimingModel(perf::DeviceSpec::amd_r9_nano(), 0.0)](
             const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
    return timing.best_of(config, shape, 3);
  };
}

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {64 + 32 * i, 128 + 16 * ((i * 7) % 11), 64 + 48 * ((i * 3) % 5)});
  }
  return shapes;
}

TEST(OnlineTunerConcurrency, SingleThreadedStatsContractUnchanged) {
  // Pin fault-free behaviour: this test asserts the exact legacy timer-call
  // accounting, which an AKS_FAULT_PLAN environment plan would perturb.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  std::atomic<int> timer_calls{0};
  OnlineTuner tuner(candidates,
                    [&, timer = model_timer()](const gemm::KernelConfig& c,
                                               const gemm::GemmShape& s) {
                      timer_calls.fetch_add(1);
                      return timer(c, s);
                    });
  (void)tuner.sweep({256, 256, 256});
  EXPECT_EQ(tuner.sweeps(), 1u);
  EXPECT_EQ(timer_calls.load(), static_cast<int>(candidates.size()));
  EXPECT_GT(tuner.trial_seconds(), 0.0);
}

TEST(OnlineTunerConcurrency, ConcurrentSweepsAgreeOnEveryShape) {
  // Fault-free, every sweep of a shape times the same candidates and picks
  // the same winner. Under a fault plan quarantine may legitimately change
  // a later sweep's winner; agreement across callers is then the serving
  // layer's job (SelectionService.NeverThrowsUnderInjectedWarmUpFailures).
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  OnlineTuner tuner(candidates, model_timer());
  const auto shapes = test_shapes(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 5;

  // winners[t][s]: config index thread t observed for shape s (last repeat;
  // all repeats must agree).
  std::vector<std::vector<std::size_t>> winners(
      kThreads, std::vector<std::size_t>(shapes.size()));
  std::atomic<bool> stable{true};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          const auto index = gemm::config_index(tuner.sweep(shapes[s]));
          if (rep > 0 && winners[t][s] != index) stable.store(false);
          winners[t][s] = index;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(stable.load());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(winners[t][s], winners[0][s])
          << "threads disagree on shape " << shapes[s].to_string();
    }
  }

  // The tuner keeps no per-shape memory: every call is a counted sweep.
  EXPECT_EQ(tuner.sweeps(), kThreads * kRepeats * shapes.size());
  EXPECT_TRUE(tuner.quarantined().empty());
  EXPECT_GT(tuner.trial_seconds(), 0.0);
}

}  // namespace
}  // namespace aks::select
