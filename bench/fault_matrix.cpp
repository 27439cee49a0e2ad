// Fault-matrix smoke bench — gates the degradation contract end to end.
//
// Runs the full extracted shape corpus through the serving stack twice:
// once fault-free (baseline selections) and once under the canned `mixed`
// fault plan at 30% with concurrent clients. Gates (non-zero exit on
// violation):
//
//   1. zero throws escape SelectionService::select() under the plan;
//   2. every shape resolves to a valid member of the candidate set
//      (or the guaranteed fallback);
//   3. the geomean predicted-time slowdown of the degraded selections vs
//      the fault-free selections is <= 1.25x (prediction by the noise-free
//      analytic CostModel, so the gate measures selection quality, not
//      injected noise);
//   4. quarantined configurations never win a shape. Quarantine is not
//      retroactive — a published answer stands, and quarantine only grows —
//      so a win counts against the gate only when its config was already
//      quarantined before every first-pass request for that shape.
//
// CI runs this as part of the fault-matrix job; it is also a handy local
// smoke test after touching src/faults or the hardened consumers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/online.hpp"
#include "core/pruning.hpp"
#include "faults/injector.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"

namespace aks {
namespace {

struct RunResult {
  std::vector<std::size_t> chosen;  // canonical config index per shape
  /// tuner.quarantined() taken just before each first-pass select.
  std::vector<std::vector<std::size_t>> quarantined_before;
  std::size_t throws = 0;
  serve::ServiceStats stats;
  std::vector<std::size_t> quarantined;
  std::size_t degraded_selects = 0;
};

RunResult run_corpus(const std::vector<gemm::GemmShape>& corpus,
                     const std::vector<std::size_t>& candidates,
                     const perf::TimingModel& timing, std::size_t threads) {
  select::OnlineTuner tuner(
      candidates,
      [&](const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
        return timing.best_of(config, shape, 5);
      });
  serve::ServiceOptions options;
  options.fallback = tuner.fallback_config();
  serve::SelectionService service(tuner, options);

  std::atomic<std::size_t> throws{0};
  std::vector<std::size_t> chosen(corpus.size(),
                                  gemm::enumerate_configs().size());
  std::vector<std::vector<std::size_t>> quarantined_before(corpus.size());
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t s = t; s < corpus.size(); s += threads) {
        quarantined_before[s] = tuner.quarantined();
        try {
          chosen[s] = gemm::config_index(service.select(corpus[s]));
        } catch (...) {
          throws.fetch_add(1);
        }
      }
      // Second pass over the whole corpus: hammer the warm cache from all
      // threads (and catch throws that only a waiter would observe).
      for (const auto& shape : corpus) {
        try {
          (void)service.select(shape);
        } catch (...) {
          throws.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  RunResult result;
  result.chosen = std::move(chosen);
  result.quarantined_before = std::move(quarantined_before);
  result.throws = throws.load();
  result.stats = service.stats();
  result.quarantined = tuner.quarantined();
  result.degraded_selects = tuner.degraded_selects();
  return result;
}

}  // namespace
}  // namespace aks

int main() {
  using namespace aks;
  bench::print_banner("Fault-matrix smoke bench: degradation under mixed@0.3",
                      "the serving-stack degradation contract (DESIGN.md)");

  const auto dataset = bench::paper_dataset();
  const auto candidates =
      select::TopNPruner().prune(dataset, 8);
  std::vector<gemm::GemmShape> corpus;
  for (const auto& lowered : data::extract_all_shapes()) {
    corpus.push_back(lowered.shape);
  }
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const perf::TimingModel timing(device, 0.03, 42);
  const perf::CostModel clean_model(device);
  constexpr std::size_t kThreads = 8;

  // Baseline: pin fault-free behaviour even if AKS_FAULT_PLAN is set.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto baseline = run_corpus(corpus, candidates, timing, kThreads);

  RunResult degraded;
  {
    faults::ScopedFaultPlan plan{faults::FaultPlan::mixed(0.3)};
    degraded = run_corpus(corpus, candidates, timing, kThreads);
  }

  const std::set<std::size_t> allowed(candidates.begin(), candidates.end());
  // Per distinct shape: was the pick quarantined before every first-pass
  // request for it? (The corpus repeats some shapes across networks.)
  std::map<gemm::GemmShape, bool> quarantined_before_all;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    const auto& before = degraded.quarantined_before[s];
    const bool was = std::find(before.begin(), before.end(),
                               degraded.chosen[s]) != before.end();
    const auto [it, first] = quarantined_before_all.emplace(corpus[s], was);
    if (!first) it->second = it->second && was;
  }
  std::size_t invalid = 0;
  std::size_t quarantined_wins = 0;
  std::vector<double> ratios;
  ratios.reserve(corpus.size());
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    const std::size_t pick = degraded.chosen[s];
    if (pick >= gemm::enumerate_configs().size() || allowed.count(pick) == 0) {
      ++invalid;
      continue;
    }
    if (quarantined_before_all.at(corpus[s]) && pick != candidates.front()) {
      ++quarantined_wins;
    }
    const auto& configs = gemm::enumerate_configs();
    const double clean =
        clean_model.predict_seconds(configs[baseline.chosen[s]], corpus[s]);
    const double faulty =
        clean_model.predict_seconds(configs[pick], corpus[s]);
    ratios.push_back(faulty / clean);
  }
  double geomean = 0.0;
  for (const double r : ratios) geomean += std::log(r);
  geomean = std::exp(geomean / static_cast<double>(ratios.size()));

  std::cout << "corpus " << corpus.size() << " shapes, " << candidates.size()
            << " candidate kernels, " << kThreads << " client threads\n"
            << "baseline: throws " << baseline.throws << ", misses "
            << baseline.stats.misses << "\n"
            << "mixed@0.3: throws " << degraded.throws << ", invalid picks "
            << invalid << ", quarantined " << degraded.quarantined.size()
            << ", quarantined wins " << quarantined_wins << "\n"
            << "  warm-up failures " << degraded.stats.warmup_failures
            << ", fallbacks served " << degraded.stats.fallbacks_served
            << ", degraded selects " << degraded.degraded_selects << "\n"
            << "  geomean predicted slowdown " << geomean << "x (gate 1.25x)\n";

  bool ok = true;
  const auto gate = [&ok](bool pass, const char* what) {
    if (!pass) {
      std::cout << "GATE FAILED: " << what << "\n";
      ok = false;
    }
  };
  gate(baseline.throws == 0, "fault-free run must not throw");
  gate(degraded.throws == 0, "select() threw under the mixed plan");
  gate(invalid == 0, "a shape resolved to an out-of-set config");
  gate(quarantined_wins == 0, "a quarantined config won a shape");
  gate(std::isfinite(geomean) && geomean <= 1.25,
       "geomean slowdown above 1.25x");
  std::cout << (ok ? "ALL GATES PASSED\n" : "FAULT MATRIX FAILED\n");
  return ok ? 0 : 1;
}
