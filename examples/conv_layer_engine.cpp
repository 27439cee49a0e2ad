// Scenario: running real convolution layers through the deployed engine.
//
// Demonstrates the full deployment stack: a selector trained by the tuning
// pipeline drives the ConvEngine, which picks the lowering (im2col vs
// Winograd) and the kernel per layer, then actually executes the
// convolution on the host runtime — verified against the direct reference.
//
// Build & run:  ./build/examples/conv_layer_engine
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "conv/direct.hpp"
#include "core/conv_engine.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "syclrt/queue.hpp"

namespace {

aks::conv::ConvShape layer(int spatial, int in_c, int out_c, int kernel,
                           int stride, int padding) {
  aks::conv::ConvShape s;
  s.in_height = s.in_width = spatial;
  s.in_channels = in_c;
  s.out_channels = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.padding = padding;
  return s;
}

}  // namespace

int main() {
  using namespace aks;

  std::cout << "Training the kernel selector (8-kernel library)...\n";
  const auto dataset = data::build_paper_dataset();
  select::PipelineOptions options;
  options.num_configs = 8;
  auto pipeline = select::run_pipeline(dataset, options);

  const select::ConvEngine engine(
      std::shared_ptr<const select::KernelSelector>(
          std::move(pipeline.selector)),
      perf::CostModel(perf::DeviceSpec::amd_r9_nano()));

  // A miniature VGG/MobileNet-flavoured layer mix (small spatial sizes so
  // the host execution stays fast).
  struct NamedLayer {
    const char* name;
    conv::ConvShape shape;
  };
  const NamedLayer layers[] = {
      {"vgg-ish 3x3", layer(16, 16, 32, 3, 1, 1)},
      {"stem 3x3/s2", layer(16, 3, 24, 3, 2, 1)},
      {"pointwise 1x1", layer(14, 48, 24, 1, 1, 0)},
      {"deep 3x3", layer(8, 64, 64, 3, 1, 1)},
  };

  syclrt::Queue queue;
  common::Rng rng(11);
  std::cout << "\n" << common::pad_right("layer", 16)
            << common::pad_right("gemm shape", 16)
            << common::pad_right("lowering", 10)
            << common::pad_right("kernel", 18) << "max error\n";
  bool all_ok = true;
  for (const auto& [name, shape] : layers) {
    std::vector<float> input(shape.input_size());
    std::vector<float> filter(shape.filter_size());
    for (auto& v : input) v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : filter) v = static_cast<float>(rng.uniform(-1, 1));

    std::vector<float> output(shape.output_size());
    const auto plan = engine.run(queue, input, filter, output, shape);

    std::vector<float> expected(shape.output_size());
    conv::direct_conv2d(input, filter, expected, shape);
    float max_error = 0.0f;
    for (std::size_t i = 0; i < output.size(); ++i) {
      max_error = std::max(max_error, std::abs(output[i] - expected[i]));
    }
    all_ok = all_ok && max_error < 1e-2f;

    std::cout << common::pad_right(name, 16)
              << common::pad_right(plan.gemm_shape.to_string(), 16)
              << common::pad_right(conv::to_string(plan.transform), 10)
              << common::pad_right(plan.config.name(), 18) << max_error
              << "\n";
  }
  std::cout << (all_ok ? "\nall layers verified against the direct reference\n"
                       : "\nERROR: mismatch vs direct reference\n");
  return all_ok ? 0 : 1;
}
