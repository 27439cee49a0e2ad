#include "check/checked_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/rng.hpp"

namespace aks::check {

namespace {

/// Winograd transforms lose more precision than plain summation-order
/// error; the conv oracle comparison uses a correspondingly wider band
/// (matching the conv test suite's expectations).
constexpr double kConvTolerance = 5e-3;

void fill_uniform(std::span<float> out, common::Rng& rng) {
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/// A recording launcher for conv::conv2d: copies the operands into checked
/// buffers, replays `Launch` (the flat or the batched checked GEMM, whose
/// batch count arrives in `batch`) and copies the result back out.
template <auto Launch>
auto recording_launcher(AccessMonitor& monitor) {
  return [&monitor](syclrt::Queue& queue, const gemm::KernelConfig& config,
                    std::span<const float> a, std::span<const float> b,
                    std::span<float> c, const gemm::GemmShape& shape,
                    auto... batch) {
    CheckedBuffer<float> a_buf("A", a, monitor);
    CheckedBuffer<float> b_buf("B", b, monitor);
    CheckedBuffer<float> c_buf("C", c.size(), monitor);
    const auto event = Launch(queue, config, a_buf.read(), b_buf.read(),
                              c_buf.write(), shape, batch...);
    const auto result = c_buf.host();
    std::copy(result.begin(), result.end(), c.begin());
    return event;
  };
}

}  // namespace

CheckResult check_conv(conv::Transform transform,
                       const gemm::KernelConfig& config,
                       const conv::ConvShape& shape) {
  AccessMonitor monitor(conv::to_string(transform) + "+" + config.name());

  const std::uint64_t seed =
      std::uint64_t{0xC0DEC0DE} ^
      (static_cast<std::uint64_t>(shape.input_size()) *
       std::uint64_t{1315423911}) ^
      static_cast<std::uint64_t>(config.work_group_size());
  common::Rng rng(seed);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  fill_uniform(input, rng);
  fill_uniform(filter, rng);

  std::vector<float> expected(shape.output_size());
  conv::direct_conv2d(input, filter, expected, shape);

  std::vector<float> actual(shape.output_size(), 0.0f);
  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  conv::conv2d(queue, transform, config, input, filter, actual, shape,
               {recording_launcher<launch_checked_gemm>(monitor),
                recording_launcher<launch_checked_batched_gemm>(monitor)});

  CheckResult result;
  std::size_t worst_index = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double err = std::abs(static_cast<double>(actual[i]) -
                                static_cast<double>(expected[i]));
    if (err > result.max_abs_error) {
      result.max_abs_error = err;
      worst_index = i;
    }
  }
  if (result.max_abs_error > kConvTolerance ||
      !std::isfinite(result.max_abs_error)) {
    result.numerics_ok = false;
    std::ostringstream os;
    os << "conv output diverges from direct_conv2d by " << result.max_abs_error
       << " (tolerance " << kConvTolerance << ")";
    monitor.report({.kind = DiagnosticKind::numeric_divergence,
                    .kernel = {},
                    .buffer = "output",
                    .index = worst_index,
                    .group_a = kNoGroup,
                    .group_b = kNoGroup,
                    .message = os.str()});
  }
  result.findings = monitor.findings();
  result.dropped_findings = monitor.dropped();
  return result;
}

std::vector<conv::ConvShape> default_conv_corpus() {
  return {
      // 3x3 stride-1 padded: all three lowerings apply, ragged 2x2 tiles.
      {.batch = 1, .in_height = 9, .in_width = 7, .in_channels = 5,
       .out_channels = 6, .kernel = 3, .stride = 1, .padding = 1},
      // Unpadded 3x3 with batch: Winograd tile edges land mid-image.
      {.batch = 2, .in_height = 8, .in_width = 8, .in_channels = 3,
       .out_channels = 4, .kernel = 3, .stride = 1, .padding = 0},
      // Strided 5x5: im2col only.
      {.batch = 1, .in_height = 11, .in_width = 11, .in_channels = 4,
       .out_channels = 3, .kernel = 5, .stride = 2, .padding = 2},
  };
}

RegistryCheckSummary check_conv_lowerings(std::size_t config_stride) {
  RegistryCheckSummary summary;
  if (config_stride == 0) config_stride = 1;
  const auto& configs = gemm::enumerate_configs();
  const auto corpus = default_conv_corpus();

  const auto absorb = [&summary](const CheckResult& result) {
    ++summary.launches;
    summary.dropped_findings += result.dropped_findings;
    summary.max_abs_error =
        std::max(summary.max_abs_error, result.max_abs_error);
    summary.findings.insert(summary.findings.end(), result.findings.begin(),
                            result.findings.end());
  };

  for (std::size_t i = 0; i < configs.size(); i += config_stride) {
    const auto& config = configs[i];
    ++summary.configs_checked;
    for (const auto& shape : corpus) {
      for (const conv::Lowering& lowering : conv::lowerings(shape)) {
        absorb(check_conv(lowering.transform, config, shape));
      }
    }
  }
  return summary;
}

}  // namespace aks::check
