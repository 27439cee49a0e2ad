#include "core/conv_engine.hpp"

#include <optional>

#include "common/error.hpp"
#include "conv/im2col.hpp"
#include "conv/winograd.hpp"

namespace aks::select {

std::vector<ConvLowering> conv_lowerings(const conv::ConvShape& shape) {
  std::vector<ConvLowering> out = {
      {data::Transform::kIm2col, conv::im2col_gemm_shape(shape), 1}};
  if (conv::winograd_applicable(shape)) {
    out.push_back({data::Transform::kWinograd,
                   conv::winograd_gemm_shape(shape),
                   conv::kWinogradF2Multiplies});
    out.push_back({data::Transform::kWinograd4,
                   conv::winograd4_gemm_shape(shape),
                   conv::kWinogradF4Multiplies});
  }
  return out;
}

ConvEngine::ConvEngine(std::shared_ptr<const KernelSelector> selector,
                       perf::CostModel cost_model)
    : selector_(std::move(selector)), cost_model_(std::move(cost_model)) {
  AKS_CHECK(selector_ != nullptr, "ConvEngine needs a selector");
  AKS_CHECK(!selector_->allowed().empty(), "ConvEngine selector is unfitted");
}

ConvEngine::Plan ConvEngine::plan(const conv::ConvShape& shape) const {
  std::optional<Plan> best;
  for (const ConvLowering& lowering : conv_lowerings(shape)) {
    Plan candidate;
    candidate.transform = lowering.transform;
    candidate.gemm_shape = lowering.gemm_shape;
    candidate.config = selector_->select_config(lowering.gemm_shape);
    candidate.modelled_seconds = cost_model_.predict_batched_seconds(
        candidate.config, lowering.gemm_shape, lowering.multiplies);
    if (!best || candidate.modelled_seconds < best->modelled_seconds) {
      best = candidate;
    }
  }
  return *best;
}

ConvEngine::Plan ConvEngine::run(syclrt::Queue& queue,
                                 std::span<const float> input,
                                 std::span<const float> filter,
                                 std::span<float> output,
                                 const conv::ConvShape& shape) const {
  const Plan chosen = plan(shape);
  switch (chosen.transform) {
    case data::Transform::kWinograd:
      conv::winograd_conv2d(queue, chosen.config, input, filter, output,
                            shape);
      break;
    case data::Transform::kWinograd4:
      conv::winograd4_conv2d(queue, chosen.config, input, filter, output,
                             shape);
      break;
    default:
      conv::im2col_conv2d(queue, chosen.config, input, filter, output, shape);
      break;
  }
  return chosen;
}

}  // namespace aks::select
