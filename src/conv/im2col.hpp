// Convolution as GEMM via the im2col transformation.
//
// im2col lays every receptive field out as a row of a patch matrix
// P[batch*out_h*out_w, kh*kw*in_c]; the convolution is then
// O = P * F with the filter viewed as F[kh*kw*in_c, out_c]. conv::conv2d
// runs it through the table row below.
#pragma once

#include <span>
#include <vector>

#include "conv/lowering_row.hpp"

namespace aks::conv {

/// Expands the input into the patch matrix (zero padding outside).
[[nodiscard]] std::vector<float> im2col_transform(std::span<const float> input,
                                                  const ConvShape& shape);

namespace detail {
/// Applies to every convolution: one GEMM, M = batch * out_h * out_w,
/// K = kh * kw * in_c, N = out_c.
extern const LoweringRow kIm2colRow;
}  // namespace detail

}  // namespace aks::conv
