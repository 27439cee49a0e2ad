#include "dataset/lowering.hpp"

#include "common/error.hpp"

namespace aks::data {

gemm::GemmShape fc_shape(const FcLayer& fc, int batch) {
  AKS_CHECK(batch > 0, "batch must be positive");
  gemm::GemmShape shape;
  shape.m = static_cast<std::size_t>(batch);
  shape.k = static_cast<std::size_t>(fc.in_features);
  shape.n = static_cast<std::size_t>(fc.out_features);
  return shape;
}

std::vector<LoweredGemm> lower_network(const Network& network,
                                       const std::vector<int>& batch_sizes) {
  AKS_CHECK(!batch_sizes.empty(), "need at least one batch size");
  std::vector<LoweredGemm> out;
  for (int batch : batch_sizes) {
    for (const auto& layer : network.convs) {
      if (layer.groups != 1) continue;
      for (const auto& lowering : conv::lowerings(layer.shape(batch))) {
        if (lowering.transform == Transform::kWinograd4) continue;
        out.push_back({lowering.gemm_shape, lowering.transform, layer.name,
                       network.name, batch});
      }
    }
    for (const auto& fc : network.fcs) {
      out.push_back({fc_shape(fc, batch), Transform::kFullyConnected, fc.name,
                     network.name, batch});
    }
  }
  return out;
}

}  // namespace aks::data
