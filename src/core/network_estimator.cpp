#include "core/network_estimator.hpp"

#include <limits>

#include "common/error.hpp"
#include "dataset/lowering.hpp"

namespace aks::select {

namespace {

/// Best modelled time for one lowering over all 640 configurations.
double optimal_time(const perf::CostModel& model,
                    const conv::Lowering& lowering) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& config : gemm::enumerate_configs()) {
    best = std::min(best, model.predict_batched_seconds(
                              config, lowering.gemm_shape,
                              lowering.multiplies));
  }
  return best;
}

}  // namespace

NetworkEstimate estimate_network(const ConvEngine& engine,
                                 const perf::CostModel& model,
                                 const data::Network& network, int batch,
                                 const gemm::KernelConfig& fixed) {
  AKS_CHECK(batch > 0, "batch must be positive");
  NetworkEstimate estimate;
  estimate.network = network.name;

  auto add_layer = [&](const std::string& name,
                       const std::vector<conv::Lowering>& lowerings,
                       const ConvEngine::Plan& plan) {
    LayerEstimate layer;
    layer.layer = name;
    layer.transform = plan.transform;
    layer.gemm_shape = plan.gemm_shape;
    layer.chosen = plan.config;
    layer.engine_seconds = plan.modelled_seconds;

    layer.fixed_seconds = std::numeric_limits<double>::infinity();
    layer.optimal_seconds = std::numeric_limits<double>::infinity();
    for (const auto& lowering : lowerings) {
      layer.fixed_seconds = std::min(
          layer.fixed_seconds,
          model.predict_batched_seconds(fixed, lowering.gemm_shape,
                                        lowering.multiplies));
      layer.optimal_seconds =
          std::min(layer.optimal_seconds, optimal_time(model, lowering));
    }

    estimate.engine_seconds += layer.engine_seconds;
    estimate.fixed_seconds += layer.fixed_seconds;
    estimate.optimal_seconds += layer.optimal_seconds;
    estimate.layers.push_back(std::move(layer));
  };

  for (const auto& layer : network.convs) {
    if (layer.groups != 1) continue;  // depthwise: no dense GEMM lowering
    const conv::ConvShape shape = layer.shape(batch);
    add_layer(layer.name, conv::lowerings(shape), engine.plan(shape));
  }

  for (const auto& fc : network.fcs) {
    const conv::Lowering lowering{conv::Transform::kFullyConnected,
                                  data::fc_shape(fc, batch), 1};
    // FC layers have exactly one lowering; plan it directly through the
    // selector (the engine API is convolution-shaped).
    ConvEngine::Plan plan;
    plan.transform = conv::Transform::kFullyConnected;
    plan.gemm_shape = lowering.gemm_shape;
    plan.config = engine.selector().select_config(lowering.gemm_shape);
    plan.modelled_seconds =
        model.predict_seconds(plan.config, lowering.gemm_shape);
    add_layer(fc.name, {lowering}, plan);
  }
  return estimate;
}

}  // namespace aks::select
