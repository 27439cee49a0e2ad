// Tests for the online tuner and the convolution engine (the deployment
// integrations added on top of the paper's core pipeline).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "conv/direct.hpp"
#include "core/conv_engine.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"
#include "perfmodel/cost_model.hpp"
#include "syclrt/queue.hpp"

namespace aks::select {
namespace {

OnlineTuner::TimerFn model_timer(double sigma = 0.0) {
  return [timing = perf::TimingModel(perf::DeviceSpec::amd_r9_nano(), sigma)](
             const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
    return timing.best_of(config, shape, 3);
  };
}

TEST(OnlineTuner, PicksTrueBestCandidateWithoutNoise) {
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  OnlineTuner tuner(candidates, model_timer());
  const gemm::GemmShape shape{784, 512, 256};
  const auto chosen = tuner.sweep(shape);

  // Verify against direct evaluation of the candidates.
  const perf::CostModel model(perf::DeviceSpec::amd_r9_nano());
  double best_time = 1e300;
  gemm::KernelConfig best;
  for (const std::size_t c : candidates) {
    const auto& config = gemm::enumerate_configs()[c];
    const double t = model.predict_seconds(config, shape);
    if (t < best_time) {
      best_time = t;
      best = config;
    }
  }
  EXPECT_EQ(chosen, best);
}

TEST(OnlineTuner, RepeatedSweepRetimesEveryCandidate) {
  // The tuner has no per-shape memory (SelectionService is the cache), so
  // sweeping a shape again re-times every candidate. Exact
  // one-trial-per-candidate accounting only holds fault-free.
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  std::size_t timer_calls = 0;
  OnlineTuner tuner({0, 1, 2},
                    [&](const gemm::KernelConfig&, const gemm::GemmShape&) {
                      ++timer_calls;
                      return 1e-3;
                    });
  const gemm::GemmShape shape{64, 64, 64};
  const auto first = tuner.sweep(shape);
  EXPECT_EQ(timer_calls, 3u);  // one trial per candidate
  const auto second = tuner.sweep(shape);
  EXPECT_EQ(timer_calls, 6u);  // the repeat re-times all three
  EXPECT_EQ(first, second);
  EXPECT_EQ(tuner.sweeps(), 2u);
  EXPECT_NEAR(tuner.trial_seconds(), 6e-3, 1e-12);
}

TEST(OnlineTuner, AsymptoticallyMatchesOracleOnCandidates) {
  // After warm-up, the online tuner achieves the restricted ceiling
  // exactly (it measured the true best candidate per shape).
  data::ExtractionOptions extraction;
  extraction.vgg_batches = {1};
  extraction.resnet_batches = {1};
  extraction.mobilenet_batches = {1};
  const auto dataset = data::build_paper_dataset({}, extraction);
  const auto split = dataset.split(0.8, 5);
  DecisionTreePruner pruner;
  const auto allowed = pruner.prune(split.train, 6);

  // Timer uses the same noisy timing as the dataset so the swept winner
  // matches the dataset's restricted argmax.
  OnlineTuner tuner(allowed, model_timer(0.0));
  for (std::size_t r = 0; r < split.test.num_shapes(); ++r) {
    const auto& shape = split.test.shapes()[r].shape;
    const auto config = tuner.sweep(shape);
    // The chosen candidate must be one of the allowed ones.
    const auto idx = gemm::config_index(config);
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), idx), allowed.end());
  }
  EXPECT_EQ(tuner.sweeps(), split.test.num_shapes());
}

TEST(OnlineTuner, RejectsBadConstruction) {
  EXPECT_THROW(OnlineTuner({}, model_timer()), common::Error);
  EXPECT_THROW(OnlineTuner({0}, nullptr), common::Error);
  EXPECT_THROW(OnlineTuner({9999}, model_timer()), common::Error);
}

class ConvEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto dataset = data::build_paper_dataset();
    PipelineOptions options;
    options.num_configs = 8;
    auto result = run_pipeline(dataset, options);
    engine_ = new ConvEngine(
        std::shared_ptr<const KernelSelector>(std::move(result.selector)),
        perf::CostModel(perf::DeviceSpec::amd_r9_nano()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static const ConvEngine& engine() { return *engine_; }

 private:
  static ConvEngine* engine_;
};

ConvEngine* ConvEngineTest::engine_ = nullptr;

TEST_F(ConvEngineTest, PlanPrefersWinogradForLargeChannelCounts) {
  // A VGG-style 3x3 layer: Winograd cuts the multiply count by ~2.25x, so
  // the modelled-compute winner should be the Winograd lowering.
  conv::ConvShape shape;
  shape.in_height = shape.in_width = 28;
  shape.in_channels = 256;
  shape.out_channels = 256;
  shape.kernel = 3;
  shape.stride = 1;
  shape.padding = 1;
  const auto plan = engine().plan(shape);
  EXPECT_TRUE(plan.transform == data::Transform::kWinograd ||
              plan.transform == data::Transform::kWinograd4);
  EXPECT_GT(plan.modelled_seconds, 0.0);
}

TEST_F(ConvEngineTest, PlanFallsBackToIm2colWhenWinogradInapplicable) {
  conv::ConvShape strided;
  strided.in_height = strided.in_width = 56;
  strided.in_channels = 64;
  strided.out_channels = 128;
  strided.kernel = 3;
  strided.stride = 2;
  strided.padding = 1;
  EXPECT_EQ(engine().plan(strided).transform, data::Transform::kIm2col);

  conv::ConvShape pointwise;
  pointwise.in_height = pointwise.in_width = 28;
  pointwise.in_channels = 96;
  pointwise.out_channels = 24;
  pointwise.kernel = 1;
  EXPECT_EQ(engine().plan(pointwise).transform, data::Transform::kIm2col);
}

TEST_F(ConvEngineTest, RunProducesCorrectConvolution) {
  conv::ConvShape shape;
  shape.batch = 2;
  shape.in_height = shape.in_width = 10;
  shape.in_channels = 6;
  shape.out_channels = 9;
  shape.kernel = 3;
  shape.stride = 1;
  shape.padding = 1;

  common::Rng rng(3);
  std::vector<float> input(shape.input_size());
  std::vector<float> filter(shape.filter_size());
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : filter) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> expected(shape.output_size());
  conv::direct_conv2d(input, filter, expected, shape);

  std::vector<float> output(shape.output_size());
  syclrt::Queue queue;
  const auto plan = engine().run(queue, input, filter, output, shape);
  EXPECT_TRUE(plan.transform != data::Transform::kFullyConnected);
  // F(4x4, 3x3) trades numerical headroom for fewer multiplies.
  const float tolerance =
      plan.transform == data::Transform::kWinograd4 ? 2e-2f : 5e-3f;
  for (std::size_t i = 0; i < output.size(); ++i) {
    ASSERT_NEAR(output[i], expected[i], tolerance) << "element " << i;
  }
}

TEST(ConvEngine, RejectsUnfittedSelector) {
  auto selector = std::make_shared<DecisionTreeSelector>();
  EXPECT_THROW(ConvEngine(selector,
                          perf::CostModel(perf::DeviceSpec::amd_r9_nano())),
               common::Error);
}

}  // namespace
}  // namespace aks::select
