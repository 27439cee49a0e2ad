// A convolution's GEMM lowerings, listed once.
//
// The paper lowers each convolution to GEMM "through transformations such
// as the im2col and Winograd". lowerings() lists the ones that apply to a
// shape, each with the GEMM it launches; conv2d() runs any of them. The
// dataset, select::ConvEngine, select::estimate_network and the checked
// replay (src/check) all read this one table.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "conv/direct.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {

/// Which transformation produced a GEMM shape. kWinograd is F(2x2, 3x3),
/// the paper's variant; kWinograd4 is F(4x4, 3x3), which the paper's
/// dataset leaves out. kFullyConnected tags a fully connected layer's GEMM;
/// it lowers no convolution.
enum class Transform { kIm2col, kWinograd, kFullyConnected, kWinograd4 };

[[nodiscard]] std::string to_string(Transform t);

/// Inverse of to_string; throws common::Error naming `what` on any other
/// text.
[[nodiscard]] Transform parse_transform(std::string_view text,
                                        std::string_view what);

/// One way to run a convolution as GEMM: the shape of its GEMM and how many
/// multiplies of that shape its one launch runs (1 for im2col, 16 and 36
/// for Winograd F(2x2) and F(4x4), one per element-product position).
struct Lowering {
  Transform transform = Transform::kIm2col;
  gemm::GemmShape gemm_shape;
  std::size_t multiplies = 1;
};

/// The lowerings that apply to `shape`: im2col always, then Winograd
/// F(2x2, 3x3) and F(4x4, 3x3) when the convolution is 3x3 stride 1.
[[nodiscard]] std::vector<Lowering> lowerings(const ConvShape& shape);

/// The launches a lowering's multiplies go through: `flat` for im2col's one
/// GEMM, `batched` for the Winograd multiplies. The checked replay
/// (src/check) passes recording launchers, so it analyses the shipped
/// lowering code.
struct GemmLaunchers {
  std::function<syclrt::Event(syclrt::Queue&, const gemm::KernelConfig&,
                              std::span<const float>, std::span<const float>,
                              std::span<float>, const gemm::GemmShape&)>
      flat = gemm::launch_gemm;
  std::function<syclrt::Event(syclrt::Queue&, const gemm::KernelConfig&,
                              std::span<const float>, std::span<const float>,
                              std::span<float>, const gemm::GemmShape&,
                              std::size_t)>
      batched = gemm::launch_batched_gemm;
};

/// Runs the convolution through `transform` with the tiled GEMM kernel
/// `config` on `queue`; layouts as in direct_conv2d. Throws common::Error
/// when `transform` is not one of lowerings(shape) or a size mismatches.
void conv2d(syclrt::Queue& queue, Transform transform,
            const gemm::KernelConfig& config, std::span<const float> input,
            std::span<const float> filter, std::span<float> output,
            const ConvShape& shape, const GemmLaunchers& launchers = {});

}  // namespace aks::conv
