#include "core/conv_engine.hpp"

#include <optional>

#include "common/error.hpp"

namespace aks::select {

ConvEngine::ConvEngine(std::shared_ptr<const KernelSelector> selector,
                       perf::CostModel cost_model)
    : selector_(std::move(selector)), cost_model_(std::move(cost_model)) {
  AKS_CHECK(selector_ != nullptr, "ConvEngine needs a selector");
  AKS_CHECK(!selector_->allowed().empty(), "ConvEngine selector is unfitted");
}

ConvEngine::Plan ConvEngine::plan(const conv::ConvShape& shape) const {
  std::optional<Plan> best;
  for (const conv::Lowering& lowering : conv::lowerings(shape)) {
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
  conv::conv2d(queue, chosen.transform, chosen.config, input, filter, output,
               shape);
  return chosen;
}

}  // namespace aks::select
