#include "conv/conv2d.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd.hpp"

namespace aks::conv {

namespace {

/// The lowering table, in the order lowerings() lists applicable rows.
constexpr const detail::LoweringRow* kRows[] = {
    &detail::kIm2colRow, &detail::kWinogradF2Row, &detail::kWinogradF4Row};

}  // namespace

std::string to_string(Transform t) {
  switch (t) {
    case Transform::kIm2col: return "im2col";
    case Transform::kWinograd: return "winograd";
    case Transform::kFullyConnected: return "fc";
    case Transform::kWinograd4: return "winograd4";
  }
  return "?";
}

Transform parse_transform(std::string_view text, std::string_view what) {
  for (const Transform t : {Transform::kIm2col, Transform::kWinograd,
                            Transform::kFullyConnected, Transform::kWinograd4}) {
    if (text == to_string(t)) return t;
  }
  AKS_FAIL(what << ": unknown transform '" << text << "'");
}

std::vector<Lowering> lowerings(const ConvShape& shape) {
  std::vector<Lowering> out;
  for (const detail::LoweringRow* row : kRows) {
    if (row->applies(shape)) {
      out.push_back({row->transform, row->gemm_shape(shape), row->multiplies});
    }
  }
  return out;
}

void conv2d(syclrt::Queue& queue, Transform transform,
            const gemm::KernelConfig& config, std::span<const float> input,
            std::span<const float> filter, std::span<float> output,
            const ConvShape& shape, const GemmLaunchers& launchers) {
  const auto row = std::find_if(
      std::begin(kRows), std::end(kRows),
      [transform](const detail::LoweringRow* r) {
        return r->transform == transform;
      });
  AKS_CHECK(row != std::end(kRows),
            to_string(transform) << " lowers no convolution");
  AKS_CHECK((*row)->applies(shape),
            to_string(transform) << " does not apply to a " << shape.kernel
                                 << "x" << shape.kernel << " stride-"
                                 << shape.stride << " convolution");
  AKS_CHECK(input.size() == shape.input_size(), "input size mismatch");
  AKS_CHECK(filter.size() == shape.filter_size(), "filter size mismatch");
  AKS_CHECK(output.size() == shape.output_size(), "output size mismatch");
  (*row)->run(queue, config, input, filter, output, shape, launchers);
}

}  // namespace aks::conv
