#include <gtest/gtest.h>

#include "core/network_estimator.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"

namespace aks::select {
namespace {

class NetworkEstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Paper-figure numerics need the fault-free dataset, also when CI
    // exports an AKS_FAULT_PLAN over the whole suite.
    const faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
    const auto dataset = data::build_paper_dataset();
    PipelineOptions options;
    options.num_configs = 8;
    auto result = run_pipeline(dataset, options);
    model_ = new perf::CostModel(perf::DeviceSpec::amd_r9_nano());
    engine_ = new ConvEngine(
        std::shared_ptr<const KernelSelector>(std::move(result.selector)),
        *model_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete model_;
    engine_ = nullptr;
    model_ = nullptr;
  }
  static const ConvEngine& engine() { return *engine_; }
  static const perf::CostModel& model() { return *model_; }

 private:
  static ConvEngine* engine_;
  static perf::CostModel* model_;
};

ConvEngine* NetworkEstimatorTest::engine_ = nullptr;
perf::CostModel* NetworkEstimatorTest::model_ = nullptr;

gemm::KernelConfig fixed_config() { return {4, 2, 8, 8, 32}; }

TEST_F(NetworkEstimatorTest, LayerInventoryMatchesNetwork) {
  const auto estimate = estimate_network(engine(), model(),
                                         data::mobilenet_v2(), 1,
                                         fixed_config());
  // MobileNetV2: 53 convs of which 17 are depthwise (skipped), plus 1 FC.
  EXPECT_EQ(estimate.layers.size(),
            data::mobilenet_v2().convs.size() - 17 + 1);
  EXPECT_EQ(estimate.network, "MobileNetV2");
}

TEST_F(NetworkEstimatorTest, OptimalLowerBoundsEverything) {
  for (const auto& network : data::paper_networks()) {
    const auto estimate =
        estimate_network(engine(), model(), network, 4, fixed_config());
    EXPECT_GT(estimate.optimal_seconds, 0.0);
    for (const auto& layer : estimate.layers) {
      EXPECT_GE(layer.engine_seconds, layer.optimal_seconds - 1e-12)
          << network.name << ":" << layer.layer;
      EXPECT_GE(layer.fixed_seconds, layer.optimal_seconds - 1e-12)
          << network.name << ":" << layer.layer;
    }
    EXPECT_GE(estimate.engine_seconds, estimate.optimal_seconds - 1e-12);
    EXPECT_GE(estimate.fixed_seconds, estimate.optimal_seconds - 1e-12);
  }
}

TEST_F(NetworkEstimatorTest, SelectionBeatsOrMatchesFixedKernel) {
  // The whole point of the pipeline: per-layer selection from 8 kernels
  // should not lose to a single fixed kernel at the network level (small
  // slack for selector errors).
  for (const auto& network : data::paper_networks()) {
    const auto estimate =
        estimate_network(engine(), model(), network, 4, fixed_config());
    EXPECT_LE(estimate.engine_seconds, estimate.fixed_seconds * 1.1)
        << network.name;
  }
}

TEST_F(NetworkEstimatorTest, EfficiencyMetricsAreSane) {
  const auto estimate = estimate_network(engine(), model(), data::resnet50(),
                                         4, fixed_config());
  EXPECT_GT(estimate.engine_efficiency(), 0.5);
  EXPECT_LE(estimate.engine_efficiency(), 1.0 + 1e-9);
  EXPECT_GT(estimate.speedup_vs_fixed(), 0.5);
}

TEST_F(NetworkEstimatorTest, BatchScalesTotals) {
  const auto b1 = estimate_network(engine(), model(), data::vgg16(), 1,
                                   fixed_config());
  const auto b8 = estimate_network(engine(), model(), data::vgg16(), 8,
                                   fixed_config());
  // Sub-linear in batch: bigger launches fill the device better (and the
  // F(4x4) lowering gets relatively cheaper), but 8x work must still cost
  // clearly more than 2x.
  EXPECT_GT(b8.optimal_seconds, 2.0 * b1.optimal_seconds);
}

TEST_F(NetworkEstimatorTest, RejectsBadBatch) {
  EXPECT_THROW((void)estimate_network(engine(), model(), data::vgg16(), 0,
                                      fixed_config()),
               common::Error);
}

}  // namespace
}  // namespace aks::select
