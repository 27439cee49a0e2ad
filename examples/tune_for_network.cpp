// Scenario: tuning a compute library for ONE network on ONE device.
//
// A team deploying MobileNetV2 on an embedded accelerator wants a minimal
// kernel library. This example tunes on that network's own GEMM shapes and
// device model, prunes to 5 kernels, and reports the per-layer choice plus
// the speedup over shipping a single fixed "default" kernel.
//
// Build & run:  ./build/examples/tune_for_network
#include <iostream>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"

int main() {
  using namespace aks;

  // Lower only MobileNetV2, at batch sizes 1 and 8 (edge inference).
  data::ExtractionOptions extraction;
  extraction.mobilenet_batches = {1, 8};
  const auto per_network = data::extract_paper_shapes(extraction);
  const auto& mobilenet = per_network[2];
  std::cout << "MobileNetV2 lowers to " << mobilenet.shapes.size()
            << " distinct GEMM shapes at batch sizes {1, 8}\n";

  // Benchmark on the embedded accelerator model.
  const auto device = perf::DeviceSpec::embedded_accelerator();
  std::cout << "Tuning for: " << device.name << " ("
            << device.peak_flops() * 1e-9 << " GFLOP/s peak, "
            << device.dram_bw_gbps << " GB/s)\n\n";
  const auto dataset = data::run_model_benchmarks(mobilenet.shapes, device, {});

  // Prune to a 5-kernel library and train the runtime selector.
  select::PipelineOptions options;
  options.num_configs = 5;
  options.train_fraction = 0.75;
  const auto result = select::run_pipeline(dataset, options);

  std::cout << "Shipped kernels (" << result.compiled_kernels
            << " compiled instantiations):\n";
  for (const auto& config : select::configs_of(result.configs)) {
    std::cout << "  " << config.name() << "\n";
  }
  std::cout << "\nPer-layer selection (first 12 layers):\n";
  std::cout << common::pad_right("layer", 22) << common::pad_right("shape", 20)
            << common::pad_right("transform", 10) << "chosen kernel\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(12, dataset.num_shapes());
       ++i) {
    const auto& item = dataset.shapes()[i];
    const auto config = result.selector->select_config(item.shape);
    std::cout << common::pad_right(item.layer, 22)
              << common::pad_right(item.shape.to_string(), 20)
              << common::pad_right(conv::to_string(item.transform), 10)
              << config.name() << "\n";
  }

  // Compare against shipping one fixed default kernel (the best single
  // config by mean score) for every layer.
  const auto means = dataset.mean_scores();
  const std::size_t default_config = common::argmax(means);
  std::vector<double> selected_scores;
  std::vector<double> default_scores;
  for (std::size_t r = 0; r < dataset.num_shapes(); ++r) {
    const std::size_t chosen =
        result.selector->select(dataset.features().row(r));
    selected_scores.push_back(dataset.scores()(r, chosen));
    default_scores.push_back(dataset.scores()(r, default_config));
  }
  const double selected = common::geometric_mean(selected_scores);
  const double fixed = common::geometric_mean(default_scores);
  std::cout << "\nGeomean % of optimal across all layers:\n"
            << "  single fixed kernel ("
            << gemm::enumerate_configs()[default_config].name()
            << "): " << 100.0 * fixed << "%\n"
            << "  5-kernel library + selector:      " << 100.0 * selected
            << "%\n"
            << "  => " << selected / fixed
            << "x geomean speedup from automated selection\n";
  return selected >= fixed ? 0 : 1;
}
