// End-to-end network estimates: what the whole tuning pipeline buys at the
// level the paper's introduction cares about — time to run a network's
// compute-intensive routines.
//
// For each network (batch 4), compares the modelled total GEMM time of:
//   fixed    — the single best-on-average kernel, no runtime selection;
//   engine   — the deployed 8-kernel library + decision-tree selector +
//              im2col/Winograd choice (ConvEngine);
//   optimal  — brute force over all 640 configurations and lowerings.
#include "bench_common.hpp"

#include "common/stats.hpp"
#include "core/network_estimator.hpp"
#include "core/pipeline.hpp"

namespace aks {
namespace {

int run() {
  bench::print_banner("Network end-to-end estimates",
                      "Section I motivation (training/inference time)");
  const auto dataset = bench::paper_dataset();
  select::PipelineOptions options;
  options.num_configs = 8;
  auto pipeline = select::run_pipeline(dataset, options);

  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  const select::ConvEngine engine(
      std::shared_ptr<const select::KernelSelector>(
          std::move(pipeline.selector)),
      model);

  // Fixed baseline: the best single configuration by mean score.
  const auto means = dataset.mean_scores();
  const auto fixed = gemm::enumerate_configs()[common::argmax(means)];

  std::cout << "\nfixed baseline kernel: " << fixed.name() << "; engine: 8"
            << " kernels + decision tree + lowering choice; batch 4\n\n";
  bench::print_row({"network", "fixed_ms", "engine_ms", "optimal_ms",
                    "speedup", "of-optimal"},
                   13);
  for (const auto& network : data::paper_networks()) {
    const auto estimate =
        select::estimate_network(engine, model, network, 4, fixed);
    bench::print_row(
        {estimate.network,
         common::format_fixed(estimate.fixed_seconds * 1e3, 3),
         common::format_fixed(estimate.engine_seconds * 1e3, 3),
         common::format_fixed(estimate.optimal_seconds * 1e3, 3),
         common::format_fixed(estimate.speedup_vs_fixed(), 2) + "x",
         bench::pct(estimate.engine_efficiency())},
        13);
  }

  // Layer detail for the most selection-sensitive network.
  const auto detail = select::estimate_network(
      engine, model, data::mobilenet_v2(), 4, fixed);
  std::cout << "\nMobileNetV2 layer detail (first 10 GEMM layers):\n";
  bench::print_row({"layer", "lowering", "kernel", "engine_us", "optimal_us"},
                   16);
  for (std::size_t i = 0; i < std::min<std::size_t>(10, detail.layers.size());
       ++i) {
    const auto& layer = detail.layers[i];
    bench::print_row(
        {layer.layer, conv::to_string(layer.transform), layer.chosen.name(),
         common::format_fixed(layer.engine_seconds * 1e6, 1),
         common::format_fixed(layer.optimal_seconds * 1e6, 1)},
        16);
  }
  std::cout << "\n(speedup = fixed/engine; of-optimal = optimal/engine;"
               " modelled\nGEMM time only, transforms excluded)\n";
  return 0;
}

}  // namespace
}  // namespace aks

int main() { return aks::run(); }
