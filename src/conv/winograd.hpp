// Convolution as GEMM via the Winograd F(2x2, 3x3) and F(4x4, 3x3)
// transformations.
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
// F(4x4, 3x3) takes 6x6 input tiles to 4x4 output tiles with 36 multiplies,
// which cuts the multiply count by up to 4x at the price of more transform
// work and less numerical headroom. The paper's dataset leaves it out; the
// ConvEngine considers it as a third lowering and picks it for 23 of the
// 101 dense convolutions of VGG-16, ResNet-50 and MobileNetV2 at batch 1.
//
// Both tile sizes share one lowering body (winograd.cpp): the filter, input
// and output transforms are data-parallel kernels on the caller's queue
// around the one batched GEMM launch, so they run on the queue's pool (or
// serially under deterministic replay) and show in its profile and trace.
// Outputs are bit-identical whatever the pool size or execution mode.
// conv::conv2d runs both through the table rows below.
#pragma once

#include "conv/lowering_row.hpp"

namespace aks::conv::detail {

/// Dense 3x3 stride-1 convolutions only. F(2x2): sixteen multiplies of
/// M = batch * ceil(out_h/2) * ceil(out_w/2), K = in_c, N = out_c, one
/// per position of the 4x4 element product; F(4x4): thirty-six, with
/// ceil(out/4) tiles along each side.
extern const LoweringRow kWinogradF2Row;
extern const LoweringRow kWinogradF4Row;

}  // namespace aks::conv::detail
