// Whole-network cost estimation under a deployed selection strategy.
//
// The paper motivates kernel selection with end-to-end training/inference
// time; this module rolls the per-GEMM decisions up to that level: for
// every layer of a network (at a given batch size), the estimator compares
// the modelled GEMM time of
//   * the deployed plan (ConvEngine: selector + transform choice),
//   * a single fixed kernel (the no-selection baseline), and
//   * the brute-force optimum over all 640 configurations and transforms,
// and reports per-layer and total times. bench/network_end_to_end prints
// the resulting table for the three networks.
#pragma once

#include <string>
#include <vector>

#include "core/conv_engine.hpp"
#include "dataset/networks.hpp"

namespace aks::select {

struct LayerEstimate {
  std::string layer;
  gemm::GemmShape gemm_shape;       // of the engine's chosen lowering
  conv::Transform transform = conv::Transform::kIm2col;
  gemm::KernelConfig chosen;
  double engine_seconds = 0.0;      // deployed plan
  double fixed_seconds = 0.0;       // single fixed kernel, best lowering
  double optimal_seconds = 0.0;     // best config x lowering (brute force)
};

struct NetworkEstimate {
  std::string network;
  std::vector<LayerEstimate> layers;
  double engine_seconds = 0.0;
  double fixed_seconds = 0.0;
  double optimal_seconds = 0.0;

  /// Fraction of brute-force-optimal performance the engine achieves.
  [[nodiscard]] double engine_efficiency() const {
    return engine_seconds > 0.0 ? optimal_seconds / engine_seconds : 0.0;
  }
  /// Speedup of the engine over the fixed-kernel baseline.
  [[nodiscard]] double speedup_vs_fixed() const {
    return engine_seconds > 0.0 ? fixed_seconds / engine_seconds : 0.0;
  }
};

/// Estimates every GEMM-lowerable layer of `network` at `batch`, using
/// `engine` for the deployed plan and `fixed` as the no-selection baseline
/// configuration. Depthwise convolutions are skipped (no dense GEMM
/// lowering). FC layers are included.
[[nodiscard]] NetworkEstimate estimate_network(const ConvEngine& engine,
                                               const perf::CostModel& model,
                                               const data::Network& network,
                                               int batch,
                                               const gemm::KernelConfig& fixed);

}  // namespace aks::select
