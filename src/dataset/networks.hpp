// Layer tables for the three networks the paper mines for GEMM shapes:
// VGG-16, ResNet-50 and MobileNetV2.
//
// Only the information needed to derive matrix-multiply shapes is kept:
// convolution geometry and fully-connected dimensions. Grouped/depthwise
// convolutions are recorded but excluded from GEMM lowering (they do not
// lower to a dense matrix multiply), which is why MobileNetV2 contributes
// the fewest shapes — matching the ordering in the paper (78/66/26).
#pragma once

#include <string>
#include <vector>

#include "conv/direct.hpp"

namespace aks::data {

struct ConvLayer {
  std::string name;
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 1;   // square kernels only; all three networks comply
  int stride = 1;
  int padding = 0;
  int in_height = 0;
  int in_width = 0;
  /// groups == in_channels marks a depthwise convolution.
  int groups = 1;

  [[nodiscard]] bool is_depthwise() const { return groups == in_channels && groups > 1; }
  /// The layer run at `batch` (which must be positive), ignoring groups.
  [[nodiscard]] conv::ConvShape shape(int batch) const;
};

struct FcLayer {
  std::string name;
  int in_features = 0;
  int out_features = 0;
};

struct Network {
  std::string name;
  std::vector<ConvLayer> convs;
  std::vector<FcLayer> fcs;
};

/// VGG-16 (configuration D): thirteen 3x3 convolutions, three FC layers.
[[nodiscard]] Network vgg16();

/// ResNet-50: 7x7 stem plus four stages of bottleneck blocks.
[[nodiscard]] Network resnet50();

/// MobileNetV2: 3x3 stem, inverted-residual blocks (1x1 expand, 3x3
/// depthwise, 1x1 project), 1x1 head, one FC.
[[nodiscard]] Network mobilenet_v2();

/// All three, in the paper's order.
[[nodiscard]] std::vector<Network> paper_networks();

}  // namespace aks::data
