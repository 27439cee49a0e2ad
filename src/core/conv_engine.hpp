// Convolution engine: the deployed library surface the paper's pipeline
// feeds into.
//
// For each convolution the engine (a) asks the trained KernelSelector for
// the kernel configuration of every lowering in the conv module's table
// (conv::lowerings: im2col, and Winograd F(2x2)/F(4x4) for 3x3 stride-1
// layers), (b) keeps the lowering the device cost model times fastest, and
// (c) runs it on the host runtime through conv::conv2d. This is the
// integration point of every layer of the repo: dataset-trained selector +
// perfmodel + conv transforms + tiled kernels + SYCL-like runtime.
#pragma once

#include <memory>
#include <span>

#include "conv/conv2d.hpp"
#include "core/selector.hpp"
#include "perfmodel/cost_model.hpp"
#include "syclrt/queue.hpp"

namespace aks::select {

class ConvEngine {
 public:
  /// The engine shares ownership of the selector (typically the pipeline's
  /// result) and copies the device cost model used for transform choice.
  ConvEngine(std::shared_ptr<const KernelSelector> selector,
             perf::CostModel cost_model);

  /// The lowering and kernel configuration the engine would use.
  struct Plan {
    conv::Transform transform = conv::Transform::kIm2col;
    gemm::KernelConfig config;
    gemm::GemmShape gemm_shape;
    /// Modelled execution time of the GEMM work (seconds).
    double modelled_seconds = 0.0;
  };
  [[nodiscard]] Plan plan(const conv::ConvShape& shape) const;

  /// The selector driving kernel choice (shared with the pipeline).
  [[nodiscard]] const KernelSelector& selector() const { return *selector_; }

  /// Executes the convolution per plan(); layouts as in conv::direct_conv2d.
  Plan run(syclrt::Queue& queue, std::span<const float> input,
           std::span<const float> filter, std::span<float> output,
           const conv::ConvShape& shape) const;

 private:
  std::shared_ptr<const KernelSelector> selector_;
  perf::CostModel cost_model_;
};

}  // namespace aks::select
