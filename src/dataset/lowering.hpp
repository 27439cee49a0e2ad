// Lowering of network layers to GEMM shapes.
//
// The paper: "Convolutional layers ... can be computed using a matrix
// multiply through transformations such as the im2col and Winograd, while
// fully connected layers are comprised of a matrix multiply and a bias add."
// A convolution's GEMMs come from the conv module's lowering table
// (conv/conv2d.hpp), the one the shipped library runs.
#pragma once

#include <string>
#include <vector>

#include "conv/conv2d.hpp"
#include "dataset/networks.hpp"
#include "gemm/shape.hpp"

namespace aks::data {

/// Which lowering produced a GEMM shape (the conv table's tag).
using Transform = conv::Transform;

/// A GEMM shape together with where it came from.
struct LoweredGemm {
  gemm::GemmShape shape;
  Transform transform = Transform::kIm2col;
  std::string layer;
  std::string network;
  int batch = 1;
};

/// Fully connected: M = batch, K = in_features, N = out_features.
[[nodiscard]] gemm::GemmShape fc_shape(const FcLayer& fc, int batch);

/// Lowers every layer of `network` at each batch size: each dense
/// convolution through im2col and, when it is 3x3 stride 1, Winograd
/// F(2x2, 3x3). Grouped convolutions (no dense GEMM) and F(4x4, 3x3) are
/// left out, as in the paper's dataset.
[[nodiscard]] std::vector<LoweredGemm> lower_network(
    const Network& network, const std::vector<int>& batch_sizes);

}  // namespace aks::data
