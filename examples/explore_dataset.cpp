// Dataset exploration: where the GEMM shapes come from and what the
// configuration space looks like — the Section II story, interactively.
//
// Build & run:  ./build/examples/explore_dataset
#include <iostream>
#include <map>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "dataset/benchmark_runner.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "ml/decision_tree.hpp"
#include "perfmodel/device_spec.hpp"

int main() {
  using namespace aks;

  // --- Shape extraction ---------------------------------------------------
  std::cout << "GEMM shapes extracted from the network zoo\n"
            << "------------------------------------------\n";
  const auto per_network = data::extract_paper_shapes();
  std::size_t total = 0;
  for (const auto& entry : per_network) {
    std::map<std::string, std::size_t> by_transform;
    gemm::GemmShape largest{0, 0, 0};
    for (const auto& item : entry.shapes) {
      ++by_transform[conv::to_string(item.transform)];
      if (item.shape.flops() > largest.flops()) largest = item.shape;
    }
    std::cout << common::pad_right(entry.network, 14) << entry.shapes.size()
              << " shapes (";
    bool first = true;
    for (const auto& [transform, count] : by_transform) {
      if (!first) std::cout << ", ";
      std::cout << count << " " << transform;
      first = false;
    }
    std::cout << "), largest " << largest.to_string() << " = "
              << largest.flops() * 1e-9 << " GFLOP\n";
    total += entry.shapes.size();
  }
  std::cout << "total: " << total << " shapes (paper: 170)\n\n";

  // --- Configuration space -------------------------------------------------
  std::cout << "Kernel configuration space\n"
            << "--------------------------\n"
            << "tile sizes {1,2,4,8}^3 -> " << gemm::registry_size()
            << " compiled kernels; x" << gemm::work_group_shapes().size()
            << " work-group shapes -> " << gemm::enumerate_configs().size()
            << " configurations\n";
  // Register pressure across the space (the occupancy driver).
  std::vector<double> regs;
  for (const auto& config : gemm::enumerate_configs()) {
    regs.push_back(config.registers_per_item());
  }
  std::cout << "registers per work-item: min " << common::min_value(regs)
            << ", median " << common::median(regs) << ", max "
            << common::max_value(regs) << "\n\n";

  // --- Performance structure ----------------------------------------------
  std::cout << "Performance structure on the R9 Nano model\n"
            << "------------------------------------------\n";
  const auto dataset = data::build_paper_dataset();
  const auto counts = dataset.optimal_counts();
  std::size_t winners = 0;
  for (const auto c : counts) winners += c > 0 ? 1u : 0u;
  std::cout << winners << " of 640 configurations win at least one shape.\n";

  // Which compile-time kernels would a library need to cover all winners?
  std::vector<gemm::KernelConfig> winning;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) winning.push_back(gemm::enumerate_configs()[c]);
  }
  std::cout << "Covering every winner outright would require "
            << gemm::count_compiled_kernels(winning)
            << " compiled kernels — the library-size problem the paper's\n"
               "pruning pipeline exists to solve.\n\n";

  // Per-network difficulty: geomean of the single best fixed config.
  std::cout << "Best single fixed configuration per network (geomean % of"
               " optimal):\n";
  std::map<std::string, std::vector<std::size_t>> rows_by_network;
  for (std::size_t r = 0; r < dataset.num_shapes(); ++r) {
    rows_by_network[dataset.shapes()[r].network].push_back(r);
  }
  for (const auto& [network, rows] : rows_by_network) {
    double best_geomean = 0.0;
    std::size_t best_config = 0;
    for (std::size_t c = 0; c < dataset.num_configs(); ++c) {
      std::vector<double> scores;
      scores.reserve(rows.size());
      for (const std::size_t r : rows) scores.push_back(dataset.scores()(r, c));
      const double g = common::geometric_mean(scores);
      if (g > best_geomean) {
        best_geomean = g;
        best_config = c;
      }
    }
    std::cout << "  " << common::pad_right(network, 14)
              << gemm::enumerate_configs()[best_config].name() << "  "
              << 100.0 * best_geomean << "%\n";
  }
  // What drives selection? Train the Table-I decision tree and read its
  // impurity-based feature importances.
  const auto split = dataset.split(0.8, 1);
  std::vector<int> labels(split.train.num_shapes());
  for (std::size_t r = 0; r < split.train.num_shapes(); ++r) {
    labels[r] = static_cast<int>(split.train.best_config(r) % 64);
  }
  ml::DecisionTreeClassifier tree;
  tree.fit(split.train.features(), labels);
  const auto importances = ml::feature_importances(tree.nodes(), 3);
  std::cout << "\nFeature importances of a best-kernel decision tree:\n"
            << "  M (rows):    " << 100.0 * importances[0] << "%\n"
            << "  K (depth):   " << 100.0 * importances[1] << "%\n"
            << "  N (columns): " << 100.0 * importances[2] << "%\n";

  // Peak throughput context for the dataset (the "flops attained" record).
  double best_gflops = 0.0;
  for (std::size_t r = 0; r < dataset.num_shapes(); ++r) {
    best_gflops = std::max(best_gflops, dataset.gflops(r, dataset.best_config(r)));
  }
  std::cout << "\nBest modelled throughput in the dataset: " << best_gflops
            << " GFLOP/s (device peak: "
            << perf::DeviceSpec::amd_r9_nano().peak_flops() * 1e-9
            << ")\n";

  std::cout << "\n(no single kernel serves everything well - hence runtime"
               " selection)\n";
  return 0;
}
