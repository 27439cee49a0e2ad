// Tests for the extensions layered on the paper's core: the agglomerative
// pruner, the gradient-boosting selector, and feature maps.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/codegen.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"

namespace aks::select {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Paper-figure numerics need the fault-free dataset, also when CI
    // exports an AKS_FAULT_PLAN over the whole suite.
    const faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
    data::ExtractionOptions extraction;
    extraction.vgg_batches = {1};
    extraction.resnet_batches = {1};
    extraction.mobilenet_batches = {1};
    dataset_ = new data::PerfDataset(
        data::build_paper_dataset({}, extraction));
    split_ = new data::DatasetSplit(dataset_->split(0.8, 5));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete split_;
    dataset_ = nullptr;
    split_ = nullptr;
  }
  static const data::PerfDataset& dataset() { return *dataset_; }
  static const data::DatasetSplit& split() { return *split_; }

 private:
  static data::PerfDataset* dataset_;
  static data::DatasetSplit* split_;
};

data::PerfDataset* ExtensionsTest::dataset_ = nullptr;
data::DatasetSplit* ExtensionsTest::split_ = nullptr;

TEST_F(ExtensionsTest, AgglomerativePrunerHonoursContract) {
  AgglomerativePruner pruner;
  for (const std::size_t budget : {4u, 8u, 15u}) {
    const auto configs = pruner.prune(split().train, budget);
    EXPECT_EQ(configs.size(), budget);
    std::set<std::size_t> distinct(configs.begin(), configs.end());
    EXPECT_EQ(distinct.size(), budget);
    EXPECT_TRUE(std::is_sorted(configs.begin(), configs.end()));
    EXPECT_GT(pruning_ceiling(split().test, configs), 0.6);
  }
}

TEST_F(ExtensionsTest, AgglomerativePrunerIsDeterministic) {
  AgglomerativePruner a;
  AgglomerativePruner b;
  EXPECT_EQ(a.prune(split().train, 8), b.prune(split().train, 8));
}

TEST_F(ExtensionsTest, GbmSelectorSelectsOnlyAllowed) {
  DecisionTreePruner pruner;
  const auto allowed = pruner.prune(split().train, 6);
  GbmSelector selector;
  selector.fit(split().train, allowed);
  EXPECT_EQ(selector.name(), "GradientBoosting");
  const std::set<std::size_t> allowed_set(allowed.begin(), allowed.end());
  for (std::size_t r = 0; r < split().test.num_shapes(); ++r) {
    EXPECT_EQ(allowed_set.count(
                  selector.select(split().test.features().row(r))),
              1u);
  }
  const double score = selector_score(selector, split().test);
  EXPECT_GT(score, 0.5);
  EXPECT_LE(score, 1.0);
}

TEST_F(ExtensionsTest, GbmCompetitiveWithSingleTree) {
  DecisionTreePruner pruner;
  const auto allowed = pruner.prune(split().train, 8);
  DecisionTreeSelector tree;
  tree.fit(split().train, allowed);
  GbmSelector gbm;
  gbm.fit(split().train, allowed);
  const double tree_score = selector_score(tree, split().test);
  const double gbm_score = selector_score(gbm, split().test);
  // Boosting should be in the same quality band as a single tree here
  // (small data); assert it is not catastrophically worse.
  EXPECT_GT(gbm_score, tree_score - 0.12);
}

TEST_F(ExtensionsTest, FeatureMapChangesModelInputs) {
  DecisionTreePruner pruner;
  const auto allowed = pruner.prune(split().train, 6);

  KnnSelector raw(1);
  raw.fit(split().train, allowed);
  KnnSelector logged(1);
  logged.set_feature_map(FeatureMap::kLog2);
  logged.fit(split().train, allowed);
  EXPECT_EQ(logged.feature_map(), FeatureMap::kLog2);

  // Both valid; with log features the kNN distance metric stops being
  // dominated by M, so predictions generally differ somewhere.
  bool any_difference = false;
  for (std::size_t r = 0; r < split().test.num_shapes(); ++r) {
    const auto row = split().test.features().row(r);
    any_difference = any_difference || raw.select(row) != logged.select(row);
  }
  EXPECT_TRUE(any_difference);
  EXPECT_GT(selector_score(logged, split().test), 0.5);
}

TEST_F(ExtensionsTest, CodegenRejectsMappedFeatures) {
  DecisionTreePruner pruner;
  const auto allowed = pruner.prune(split().train, 6);
  DecisionTreeSelector mapped;
  mapped.set_feature_map(FeatureMap::kLog2);
  mapped.fit(split().train, allowed);
  EXPECT_THROW((void)generate_selector_code(mapped), common::Error);
}

TEST_F(ExtensionsTest, PipelineSupportsExtensionMethods) {
  PipelineOptions options;
  options.num_configs = 5;
  options.prune_method = PruneMethod::kAgglomerative;
  options.selector_method = SelectorMethod::kGradientBoosting;
  options.feature_map = FeatureMap::kLog2;
  const auto result = run_pipeline(dataset(), options);
  EXPECT_EQ(result.configs.size(), 5u);
  EXPECT_GT(result.achieved, 0.0);
  EXPECT_EQ(result.selector->feature_map(), FeatureMap::kLog2);
  EXPECT_EQ(to_string(PruneMethod::kAgglomerative), "Agglomerative");
  EXPECT_EQ(to_string(SelectorMethod::kGradientBoosting), "GradientBoosting");
  EXPECT_EQ(to_string(FeatureMap::kLog2), "log2");
}

}  // namespace
}  // namespace aks::select
