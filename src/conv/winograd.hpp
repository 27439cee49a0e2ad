// Convolution as GEMM via the Winograd F(2x2, 3x3) transformation.
//
// For a dense 3x3 stride-1 convolution the Winograd algorithm lowers each
// batch of 2x2 output tiles to sixteen independent GEMMs of identical shape
// [tiles x in_c] * [in_c x out_c] — the second family of GEMM shapes the
// dataset layer extracts. Transform matrices (Lavin & Gray notation):
//
//   B^T = | 1  0 -1  0 |   G = | 1    0    0  |   A^T = | 1 1  1  0 |
//         | 0  1  1  0 |       | 1/2  1/2  1/2|         | 0 1 -1 -1 |
//         | 0 -1  1  0 |       | 1/2 -1/2  1/2|
//         | 0  1  0 -1 |       | 0    0    1  |
//
//   V = B^T d B (input tiles), U = G g G^T (filter), Y = A^T (U .* V) A.
//
// Both tile sizes share one lowering body (winograd.cpp): the filter, input
// and output transforms are data-parallel kernels on the caller's queue
// around the one batched GEMM launch, so they run on the queue's pool (or
// serially under deterministic replay) and show in its profile and trace.
// Outputs are bit-identical whatever the pool size or execution mode.
#pragma once

#include <functional>
#include <span>

#include "conv/direct.hpp"
#include "gemm/config.hpp"
#include "gemm/registry.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::conv {

/// Launch used for the batched transformed multiplies. The default is
/// gemm::launch_batched_gemm; the checked execution mode (src/check)
/// injects a recording launcher (see conv/im2col.hpp).
using BatchedGemmLaunchFn = std::function<syclrt::Event(
    syclrt::Queue&, const gemm::KernelConfig&, std::span<const float>,
    std::span<const float>, std::span<float>, const gemm::GemmShape&,
    std::size_t)>;

/// Batch counts of the batched GEMM launches: one multiply per position of
/// the element-wise product, (tile+2)^2 positions for F(tile x tile, 3x3).
/// These are the `batch` values the symbolic access verifier quantifies the
/// batched-launch summaries over (see src/check/symbolic).
inline constexpr std::size_t kWinogradF2Multiplies = 16;  // 4x4 positions
inline constexpr std::size_t kWinogradF4Multiplies = 36;  // 6x6 positions

/// True when the Winograd path supports the convolution (3x3, stride 1).
[[nodiscard]] bool winograd_applicable(const ConvShape& shape);

/// Shape of each of the sixteen batched GEMMs (matches
/// data::winograd_shape).
[[nodiscard]] gemm::GemmShape winograd_gemm_shape(const ConvShape& shape);

/// Runs the convolution via Winograd F(2x2, 3x3): three transform kernels
/// and the sixteen multiplies with the tiled GEMM kernel `config` through
/// `launch`, all on `queue`. Output layout matches direct_conv2d. Throws
/// when the shape is not applicable.
void winograd_conv2d(
    syclrt::Queue& queue, const gemm::KernelConfig& config,
    std::span<const float> input, std::span<const float> filter,
    std::span<float> output, const ConvShape& shape,
    const BatchedGemmLaunchFn& launch = gemm::launch_batched_gemm);

// --- F(4x4, 3x3) -------------------------------------------------------------
// Larger output tiles (4x4 from 6x6 input tiles, 36 multiplies) cut the
// multiply count by up to 4x at the price of more transform work and less
// numerical headroom. Not part of the paper's dataset; the ConvEngine
// considers it as a third lowering and picks it for 23 of the 101 dense
// convolutions of VGG-16, ResNet-50 and MobileNetV2 at batch 1.

/// Shape of each of the thirty-six F(4x4,3x3) multiplies:
/// M = batch * ceil(out_h/4) * ceil(out_w/4), K = in_c, N = out_c.
[[nodiscard]] gemm::GemmShape winograd4_gemm_shape(const ConvShape& shape);

/// Runs the convolution via Winograd F(4x4, 3x3) (same applicability rules
/// as F(2x2, 3x3): dense 3x3, stride 1).
void winograd4_conv2d(
    syclrt::Queue& queue, const gemm::KernelConfig& config,
    std::span<const float> input, std::span<const float> filter,
    std::span<float> output, const ConvShape& shape,
    const BatchedGemmLaunchFn& launch = gemm::launch_batched_gemm);

}  // namespace aks::conv
