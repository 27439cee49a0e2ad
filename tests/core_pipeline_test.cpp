// Integration tests: the full dataset -> prune -> select -> evaluate
// pipeline, including reproduction-level sanity on the paper's headline
// claims (loose bounds only; the exact figures live in the bench binaries
// and EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "check/symbolic/certificate.hpp"
#include "common/error.hpp"
#include "core/codegen.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"
#include "gemm/reference.hpp"
#include "gemm/registry.hpp"
#include "ml/pca.hpp"
#include "syclrt/queue.hpp"

namespace aks::select {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Paper-figure numerics need the fault-free dataset, also when CI
    // exports an AKS_FAULT_PLAN over the whole suite.
    const faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
    dataset_ = new data::PerfDataset(data::build_paper_dataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const data::PerfDataset& dataset() { return *dataset_; }

 private:
  static data::PerfDataset* dataset_;
};

data::PerfDataset* PipelineTest::dataset_ = nullptr;

TEST_F(PipelineTest, PaperDatasetDimensions) {
  EXPECT_EQ(dataset().num_shapes(), 172u);  // the paper: 170
  EXPECT_EQ(dataset().num_configs(), 640u);
}

TEST_F(PipelineTest, Figure2LongTailReproduced) {
  const auto counts = dataset().optimal_counts();
  std::size_t winners = 0;
  std::size_t top = 0;
  for (const auto c : counts) {
    winners += c > 0 ? 1u : 0u;
    top = std::max(top, c);
  }
  // The paper: 58 distinct winners, top config wins 32. Shape check: a
  // long tail of tens of winners with one configuration clearly ahead.
  EXPECT_GE(winners, 40u);
  EXPECT_LE(winners, 100u);
  EXPECT_GE(top, 8u);
}

TEST_F(PipelineTest, Figure3VarianceConcentrationReproduced) {
  const auto split = dataset().split(0.8, 1);
  ml::Pca pca;
  pca.fit(split.train.scores());
  // The paper: 4 components -> >=80%, 8 -> ~90%, 15 -> ~95%.
  double cum4 = 0, cum8 = 0, cum15 = 0;
  const auto& ratios = pca.explained_variance_ratio();
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    if (i < 4) cum4 += ratios[i];
    if (i < 8) cum8 += ratios[i];
    if (i < 15) cum15 += ratios[i];
  }
  EXPECT_GT(cum4, 0.75);
  EXPECT_GT(cum8, 0.85);
  EXPECT_GT(cum15, 0.92);
}

TEST_F(PipelineTest, Figure4PruningCeilingsReproduced) {
  const auto split = dataset().split(0.8, 1);
  // At 15 configs every technique reaches ~95% of optimal.
  for (const auto& pruner : all_pruners(0)) {
    const auto configs = pruner->prune(split.train, 15);
    EXPECT_GT(pruning_ceiling(split.test, configs), 0.90) << pruner->name();
  }
}

TEST_F(PipelineTest, EndToEndPipelineProducesDeployableSelector) {
  PipelineOptions options;
  options.num_configs = 8;
  auto result = run_pipeline(dataset(), options);
  EXPECT_EQ(result.configs.size(), 8u);
  EXPECT_GT(result.ceiling, 0.8);
  EXPECT_GT(result.achieved, 0.5);
  EXPECT_LE(result.achieved, result.ceiling + 1e-12);
  EXPECT_LE(result.compiled_kernels, 8u);
  EXPECT_GE(result.compiled_kernels, 1u);
  ASSERT_NE(result.selector, nullptr);

  // The deployed selector must pick a runnable kernel for an unseen shape.
  const gemm::GemmShape shape{100, 80, 60};
  const auto config = result.selector->select_config(shape);
  std::vector<float> a(shape.m * shape.k, 1.0f);
  std::vector<float> b(shape.k * shape.n, 1.0f);
  std::vector<float> c(shape.m * shape.n);
  syclrt::Queue queue;
  gemm::launch_gemm(queue, config, a, b, c, shape);
  for (const float v : c) ASSERT_FLOAT_EQ(v, 80.0f);
}

TEST_F(PipelineTest, TableOneOrderingReproduced) {
  // The headline of Table I: the decision tree matches or beats the other
  // classifiers, and the radial SVM is far behind.
  PipelineOptions options;
  options.num_configs = 8;
  options.selector_method = SelectorMethod::kDecisionTree;
  const double tree = run_pipeline(dataset(), options).achieved;
  options.selector_method = SelectorMethod::k3Nn;
  const double knn3 = run_pipeline(dataset(), options).achieved;
  options.selector_method = SelectorMethod::kRadialSvm;
  const double radial = run_pipeline(dataset(), options).achieved;
  EXPECT_GT(tree, knn3 - 0.02);
  EXPECT_GT(tree, radial + 0.1);
}

TEST_F(PipelineTest, EveryMethodCombinationRuns) {
  data::ExtractionOptions extraction;
  extraction.vgg_batches = {1};
  extraction.resnet_batches = {1};
  extraction.mobilenet_batches = {1};
  const auto small = data::build_paper_dataset({}, extraction);
  for (const auto prune :
       {PruneMethod::kTopN, PruneMethod::kKMeans, PruneMethod::kHdbscan,
        PruneMethod::kPcaKMeans, PruneMethod::kDecisionTree}) {
    PipelineOptions options;
    options.num_configs = 5;
    options.prune_method = prune;
    const auto result = run_pipeline(small, options);
    EXPECT_EQ(result.configs.size(), 5u) << to_string(prune);
    EXPECT_GT(result.achieved, 0.0) << to_string(prune);
  }
}

TEST_F(PipelineTest, ScaleFeaturesFlagPropagates) {
  PipelineOptions options;
  options.num_configs = 5;
  options.selector_method = SelectorMethod::kRadialSvm;
  options.scale_features = true;
  const auto result = run_pipeline(dataset(), options);
  EXPECT_TRUE(result.selector->scales_features());
}

TEST_F(PipelineTest, CertifiedMaskGatesShippedConfigs) {
  PipelineOptions options;
  options.num_configs = 6;
  const auto baseline = run_pipeline(dataset(), options);
  // Revoke the certificate of every config the ungated run shipped: none of
  // them may appear again, and the budget is still met from certified ones.
  std::vector<bool> mask(dataset().num_configs(), true);
  for (const auto c : baseline.configs) mask[c] = false;
  options.certified_mask = mask;
  const auto gated = run_pipeline(dataset(), options);
  EXPECT_EQ(gated.configs.size(), 6u);
  for (const auto c : gated.configs) {
    EXPECT_TRUE(mask[c]) << "uncertified config " << c << " shipped";
  }
}

TEST_F(PipelineTest, SymbolicCertificatesAdmitTheFullSpaceEndToEnd) {
  // The real certificate chain: certify_space -> safe_mask -> pipeline.
  // Every shipped configuration proves SAFE, so gating on the certificates
  // must reproduce the ungated selection exactly.
  const auto report = check::symbolic::certify_space(
      gemm::enumerate_configs(), perf::DeviceSpec::shipped());
  ASSERT_TRUE(report.all_safe());
  PipelineOptions options;
  options.num_configs = 8;
  const auto baseline = run_pipeline(dataset(), options);
  options.certified_mask = report.safe_mask(dataset().num_configs());
  const auto gated = run_pipeline(dataset(), options);
  EXPECT_EQ(gated.configs, baseline.configs);
}

TEST_F(PipelineTest, RejectsDegenerateBudget) {
  PipelineOptions options;
  options.num_configs = 1;
  EXPECT_THROW((void)run_pipeline(dataset(), options), common::Error);
}

TEST_F(PipelineTest, MethodNamesRoundTrip) {
  EXPECT_EQ(to_string(PruneMethod::kPcaKMeans), "PCA+KMeans");
  EXPECT_EQ(to_string(SelectorMethod::kLinearSvm), "LinearSVM");
  EXPECT_EQ(make_pruner(PruneMethod::kHdbscan)->name(), "HDBScan");
  EXPECT_EQ(make_selector(SelectorMethod::k1Nn)->name(), "1NearestNeighbor");
}

TEST_F(PipelineTest, PipelineIsFullyDeterministic) {
  PipelineOptions options;
  options.num_configs = 6;
  const auto a = run_pipeline(dataset(), options);
  const auto b = run_pipeline(dataset(), options);
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_DOUBLE_EQ(a.ceiling, b.ceiling);
  EXPECT_DOUBLE_EQ(a.achieved, b.achieved);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST_F(PipelineTest, DifferentSplitSeedsChangeTheNumbers) {
  PipelineOptions options;
  options.num_configs = 6;
  options.split_seed = 1;
  const auto a = run_pipeline(dataset(), options);
  options.split_seed = 2;
  const auto b = run_pipeline(dataset(), options);
  EXPECT_NE(a.achieved, b.achieved);
}

TEST_F(PipelineTest, ConfigsOfValidatesIndices) {
  EXPECT_EQ(configs_of({0, 639}).size(), 2u);
  EXPECT_THROW((void)configs_of({640}), common::Error);
}

TEST_F(PipelineTest, CodegenDeploymentEndToEnd) {
  // Full deployment path: pipeline -> tree selector -> generated C++.
  PipelineOptions options;
  options.num_configs = 6;
  auto result = run_pipeline(dataset(), options);
  const auto* tree_selector =
      dynamic_cast<const DecisionTreeSelector*>(result.selector.get());
  ASSERT_NE(tree_selector, nullptr);
  const std::string code = generate_selector_code(*tree_selector);
  EXPECT_GT(code.size(), 200u);
}

}  // namespace
}  // namespace aks::select
