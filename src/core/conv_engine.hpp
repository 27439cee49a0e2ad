// Convolution engine: the deployed library surface the paper's pipeline
// feeds into.
//
// For each convolution the engine (a) decides between the im2col and
// Winograd lowerings using the device cost model over their GEMM shapes,
// (b) asks the trained KernelSelector for the kernel configuration of the
// chosen GEMM, and (c) executes the convolution on the host runtime. This
// is the integration point of every layer of the repo: dataset-trained
// selector + perfmodel + conv transforms + tiled kernels + SYCL-like
// runtime.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "conv/direct.hpp"
#include "core/selector.hpp"
#include "dataset/lowering.hpp"
#include "perfmodel/cost_model.hpp"
#include "syclrt/queue.hpp"

namespace aks::select {

/// One way to run a convolution as GEMM: the lowering, the shape of its
/// GEMM, and how many multiplies of that shape its one launch runs.
struct ConvLowering {
  data::Transform transform = data::Transform::kIm2col;
  gemm::GemmShape gemm_shape;
  std::size_t multiplies = 1;
};

/// The lowerings that apply to `shape`, im2col first, then Winograd
/// F(2x2, 3x3) and F(4x4, 3x3) when the convolution is dense 3x3 stride 1.
[[nodiscard]] std::vector<ConvLowering> conv_lowerings(
    const conv::ConvShape& shape);

class ConvEngine {
 public:
  /// The engine shares ownership of the selector (typically the pipeline's
  /// result) and copies the device cost model used for transform choice.
  ConvEngine(std::shared_ptr<const KernelSelector> selector,
             perf::CostModel cost_model);

  /// The lowering and kernel configuration the engine would use.
  struct Plan {
    data::Transform transform = data::Transform::kIm2col;
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
