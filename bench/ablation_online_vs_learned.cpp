// Ablation F: dynamic (online) tuning vs the learned selector.
//
// The paper's introduction observes that ML frameworks tune dynamically —
// trial runs the first time a size is seen — while the paper proposes a
// trained selector with no warm-up. This bench quantifies the trade-off on
// the held-out shapes: the online tuner eventually achieves the restricted
// ceiling but pays |candidates| trial runs per novel shape; the learned
// selector answers instantly but leaves some performance behind.
#include "bench_common.hpp"

#include "common/stats.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"

namespace aks {
namespace {

int run() {
  bench::print_banner("Ablation F: online tuning vs learned selection",
                      "Section I (dynamic auto-tuning) vs Section IV");
  const auto dataset = bench::paper_dataset();
  const auto split = dataset.split(bench::kTrainFraction, bench::kSplitSeed);

  bench::print_row({"budget", "ceiling%", "learned%", "online%",
                    "warmup_runs", "warmup_ms"},
                   14);
  for (const std::size_t n : {std::size_t{5}, std::size_t{8}, std::size_t{15}}) {
    select::DecisionTreePruner pruner;
    const auto allowed = pruner.prune(split.train, n);
    const double ceiling = select::pruning_ceiling(split.test, allowed);

    select::DecisionTreeSelector learned;
    learned.fit(split.train, allowed);
    const double learned_score = select::selector_score(learned, split.test);

    // Online tuner timed by the same noisy harness that built the dataset,
    // then scored on the dataset's recorded scores. The held-out shapes are
    // distinct, so each is swept exactly once: its first-sight cost.
    const perf::TimingModel timing(perf::DeviceSpec::amd_r9_nano(), 0.03, 42);
    select::OnlineTuner online(
        allowed, [&](const gemm::KernelConfig& config,
                     const gemm::GemmShape& shape) {
          return timing.best_of(config, shape, 5);
        });
    std::vector<double> online_scores;
    for (std::size_t r = 0; r < split.test.num_shapes(); ++r) {
      const auto config = online.sweep(split.test.shapes()[r].shape);
      online_scores.push_back(
          split.test.scores()(r, gemm::config_index(config)));
    }
    const double online_score = common::geometric_mean(online_scores);
    const double warmup_runs =
        static_cast<double>(online.sweeps() * allowed.size() * 5);

    bench::print_row({std::to_string(n), bench::pct(ceiling),
                      bench::pct(learned_score), bench::pct(online_score),
                      common::format_fixed(warmup_runs, 0),
                      common::format_fixed(online.trial_seconds() * 1e3, 2)},
                     14);
  }
  std::cout << "\n(online pays warmup_runs kernel executions before reaching"
               " its\nscore; the learned selector answers in ~20 ns with no"
               " warm-up —\nsee bench/selection_latency)\n";
  return 0;
}

}  // namespace
}  // namespace aks

int main() { return aks::run(); }
