// Checked execution of the convolution lowerings.
//
// The conv module lowers every convolution to the tiled GEMM family through
// one table (conv/conv2d.hpp: im2col, one multiply; Winograd F(2x2)/F(4x4),
// 16/36 batched multiplies). check_conv runs the *production* lowering
// through conv::conv2d with its GEMM launches swapped for recording ones
// (conv::GemmLaunchers), so the patch/transform bookkeeping and the kernels
// are analysed together, and verifies the result against direct_conv2d.
#pragma once

#include <vector>

#include "check/checked_gemm.hpp"
#include "conv/conv2d.hpp"
#include "gemm/config.hpp"

namespace aks::check {

/// `transform` with the checked tiled GEMM `config` vs direct_conv2d; the
/// findings are labelled "<transform>+<config>" (im2col+…, winograd+…,
/// winograd4+…).
[[nodiscard]] CheckResult check_conv(conv::Transform transform,
                                     const gemm::KernelConfig& config,
                                     const conv::ConvShape& shape);

/// Conv shapes exercising padding, stride and ragged output tiles.
[[nodiscard]] std::vector<conv::ConvShape> default_conv_corpus();

/// Sweeps a spread of configurations across the conv corpus through every
/// lowering conv::lowerings lists for each shape.
[[nodiscard]] RegistryCheckSummary check_conv_lowerings(
    std::size_t config_stride = 80);

}  // namespace aks::check
