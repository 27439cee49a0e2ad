// offline_ship: one client; one op builds the shipped library, in order:
// build the paper dataset (on the program's own pool), split it, fit PCA,
// run the five paper pruners at budget 8, fit the six Table I selectors on
// the tree-pruned set, evaluate, and round-trip the decision tree through
// save_selector / load_selector. No kernel and no service runs here.
#include <spawn.h>
#include <sys/wait.h>

#include <iostream>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "core/pruning.hpp"
#include "core/selector.hpp"
#include "core/serialize.hpp"
#include "dataset/benchmark_runner.hpp"
#include "ml/pca.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// The paper's 136/34 split: the seed varies the model seeds only, so the
/// shipped tree and quality_pct are the same for every seed.
constexpr std::uint64_t kSplitSeed = 1;
constexpr std::size_t kBudget = 8;
/// Process starts timed per run; their median is setup_s.
constexpr int kStartupProbes = 31;

// Span names, in the order of select::all_pruners / select::all_selectors.
const std::vector<std::pair<const char*, const char*>> kPruners = {
    {"TopN", "core.prune_ms.topn"},
    {"KMeans", "core.prune_ms.kmeans"},
    {"HDBScan", "core.prune_ms.hdbscan"},
    {"PCA+KMeans", "core.prune_ms.pca_kmeans"},
    {"DecisionTree", "core.prune_ms.tree"},
};
const std::vector<const char*> kFits = {
    "core.fit_ms.tree",      "core.fit_ms.forest",     "core.fit_ms.knn1",
    "core.fit_ms.knn3",      "core.fit_ms.svm_linear", "core.fit_ms.svm_rbf",
};

struct Library {
  aks::data::PerfDataset dataset;
  std::unique_ptr<aks::select::KernelSelector> tree;
  aks::select::DecisionTreeSelector loaded;
  double quality_pct = 0.0;
  std::vector<std::pair<std::string, double>> ceilings;
  std::vector<std::pair<std::string, double>> scores;
};

Library build_library(const std::filesystem::path& file, std::uint64_t seed) {
  Library out;
  {
    aks::trace::Span span("dataset.build_ms");
    out.dataset = aks::data::build_paper_dataset();
  }
  const auto split = out.dataset.split(0.8, kSplitSeed);
  {
    aks::trace::Span span("ml.pca_ms");
    aks::ml::Pca pca;
    pca.fit(split.train.scores());
  }
  const auto pruners = aks::select::all_pruners(seed);
  if (pruners.size() != kPruners.size()) {
    throw std::runtime_error("unexpected pruner list");
  }
  std::vector<std::vector<std::size_t>> pruned;
  for (std::size_t i = 0; i < pruners.size(); ++i) {
    if (pruners[i]->name() != kPruners[i].first) {
      throw std::runtime_error("unexpected pruner " + pruners[i]->name());
    }
    aks::trace::Span span(kPruners[i].second);
    pruned.push_back(pruners[i]->prune(split.train, kBudget));
  }
  auto selectors = aks::select::all_selectors(seed);
  if (selectors.size() != kFits.size()) {
    throw std::runtime_error("unexpected selector list");
  }
  for (std::size_t i = 0; i < selectors.size(); ++i) {
    aks::trace::Span span(kFits[i]);
    selectors[i]->fit(split.train, pruned.back());
  }
  {
    aks::trace::Span span("core.eval_ms");
    for (std::size_t i = 0; i < pruned.size(); ++i) {
      out.ceilings.push_back(
          {pruners[i]->name(), aks::select::pruning_ceiling(split.test, pruned[i])});
    }
    for (const auto& selector : selectors) {
      out.scores.push_back(
          {selector->name(), aks::select::selector_score(*selector, split.test)});
      (void)aks::select::selector_accuracy(*selector, split.test);
    }
  }
  out.quality_pct = 100.0 * out.scores.front().second;
  {
    aks::trace::Span span("core.serialize_ms");
    aks::select::save_selector(
        dynamic_cast<const aks::select::DecisionTreeSelector&>(*selectors[0]),
        file);
    out.loaded = aks::select::load_selector(file);
  }
  out.tree = std::move(selectors[0]);
  return out;
}

/// The round-tripped tree picks what the fitted tree picks on every shape.
bool round_trip_exact(const Library& library) {
  const auto& features = library.dataset.features();
  for (std::size_t r = 0; r < features.rows(); ++r) {
    if (library.tree->select(features.row(r)) !=
        library.loaded.select(features.row(r))) {
      return false;
    }
  }
  return true;
}

/// Wall time to spawn this executable in probe mode and reap it.
double process_start_seconds(const std::string& self) {
  std::string probe = "--startup-probe";
  char* argv[] = {const_cast<char*>(self.c_str()), probe.data(), nullptr};
  const auto start = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot spawn " + self);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("start-up probe failed");
  }
  return seconds_since(start);
}

struct Phase {
  std::vector<double> op_ms;
  double seconds = 0.0;
};

Phase ship_ops(const Options& options, Report& report, double measure,
               double& first_quality) {
  const auto file = options.run_dir / "shipped_selector.txt";
  Phase phase;
  const auto start = Clock::now();
  while (seconds_since(start) < measure) {
    const auto op_start = Clock::now();
    const Library library = build_library(file, options.seed);
    const double ms = seconds_since(op_start) * 1e3;
    phase.op_ms.push_back(ms);
    phase.seconds += ms / 1e3;
    if (first_quality < 0.0) {
      first_quality = library.quality_pct;
      property("dataset shapes x configs",
               std::to_string(library.dataset.num_shapes()) + " x " +
                   std::to_string(library.dataset.num_configs()));
      property("kernel budget", std::to_string(kBudget));
      for (const auto& [name, ceiling] : library.ceilings) {
        property("pruning ceiling " + name, fixed(100.0 * ceiling, 2) + " %");
      }
      for (const auto& [name, score] : library.scores) {
        property("selector score " + name, fixed(100.0 * score, 2) + " %");
      }
    }
    report.op(round_trip_exact(library) &&
              library.quality_pct == first_quality);
  }
  return phase;
}

}  // namespace

void run_offline_ship(const Options& options, Report& report) {
  std::vector<double> starts;
  for (int i = 0; i < kStartupProbes; ++i) {
    starts.push_back(process_start_seconds(options.self));
  }
  property("hit ratio", "n/a (no cache on this path)");

  double first_quality = -1.0;
  const double measure = options.trace ? options.seconds / 2 : options.seconds;
  const Phase phase = ship_ops(options, report, measure, first_quality);
  const double rss = peak_rss_mb();
  const double op_ms = median(phase.op_ms);

  if (!options.trace) {
    report.metrics_from(
        end_to_end_metrics(),
        {{"setup_s", median(starts)},
         {"op_ms", op_ms},
         {"ops_per_s", 1e3 / op_ms},
         {"quality_pct", first_quality},
         {"rss_mb", rss}});
    print_tail(phase.op_ms, phase.op_ms.size());
    return;
  }

  aks::trace::TraceSession session;
  const Phase traced = ship_ops(options, report, measure, first_quality);
  session.stop();
  const auto spans = group_spans(session.events());
  const auto dropped = session.stats().dropped;
  const std::string files = export_trace(session, options);

  // Metrics are per-stage medians; the accounting line uses means so that
  // it adds up.
  std::map<std::string, double> layers;
  const double ops = static_cast<double>(traced.op_ms.size());
  double stages = 0.0;
  std::cout << "accounting (traced, mean per op): op "
            << fixed(traced.seconds * 1e3 / ops, 1) << " ms =\n";
  for (const auto& [name, unit] : per_layer_metrics()) {
    const SpanGroup& group = span_group(spans, name);
    if (group.ns.empty()) continue;
    layers[name] = median(group.ns) / 1e6;
    const double mean_ms = group.total_ns / ops / 1e6;
    stages += mean_ms;
    std::cout << "  " << name << " " << fixed(mean_ms, 2) << " ms\n";
  }
  std::cout << "  + unaccounted (split and bookkeeping) "
            << fixed(traced.seconds * 1e3 / ops - stages, 2) << " ms\n"
            << "trace files: " << files << ".{json,csv}\n";
  layers["trace.overhead_pct"] = 100.0 * (median(traced.op_ms) / op_ms - 1.0);
  layers["trace.dropped"] = static_cast<double>(dropped);
  report.metrics_from(per_layer_metrics(), layers);
}

}  // namespace perfbench
