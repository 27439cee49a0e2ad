// Convolution as GEMM via the im2col transformation.
//
// im2col lays every receptive field out as a row of a patch matrix
// P[batch*out_h*out_w, kh*kw*in_c]; the convolution is then
// O = P * F with the filter viewed as F[kh*kw*in_c, out_c] — exactly the
// (M, K, N) triple the dataset layer extracts for conv layers.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "conv/direct.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {

/// The GEMM this convolution lowers to (matches data::im2col_shape).
[[nodiscard]] gemm::GemmShape im2col_gemm_shape(const ConvShape& shape);

/// Expands the input into the patch matrix (zero padding outside).
[[nodiscard]] std::vector<float> im2col_transform(std::span<const float> input,
                                                  const ConvShape& shape);

/// Launch used for the patch-matrix multiply. The default is
/// gemm::launch_gemm; the checked execution mode (src/check) injects a
/// launcher that routes the same multiply through recording buffers, so
/// conv lowerings are analysed through their production code path.
using GemmLaunchFn = std::function<syclrt::Event(
    syclrt::Queue&, const gemm::KernelConfig&, std::span<const float>,
    std::span<const float>, std::span<float>, const gemm::GemmShape&)>;

/// Runs the convolution as im2col + a tiled GEMM with `config` on `queue`,
/// the GEMM through `launch`. Output layout matches direct_conv2d.
void im2col_conv2d(syclrt::Queue& queue, const gemm::KernelConfig& config,
                   std::span<const float> input, std::span<const float> filter,
                   std::span<float> output, const ConvShape& shape,
                   const GemmLaunchFn& launch = gemm::launch_gemm);

}  // namespace aks::conv
