#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/error.hpp"
#include "core/evaluation.hpp"
#include "core/pruning.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"

namespace aks::select {
namespace {

/// Shared fixture: one modest dataset reused by every pruning test.
class PruningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Paper-figure numerics need the fault-free dataset, also when CI
    // exports an AKS_FAULT_PLAN over the whole suite.
    const faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
    data::ExtractionOptions extraction;
    // Keep it small: single batch per network.
    extraction.vgg_batches = {1};
    extraction.resnet_batches = {1};
    extraction.mobilenet_batches = {1};
    dataset_ = new data::PerfDataset(data::build_paper_dataset({}, extraction));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static const data::PerfDataset& dataset() { return *dataset_; }

 private:
  static data::PerfDataset* dataset_;
};

data::PerfDataset* PruningTest::dataset_ = nullptr;

TEST_F(PruningTest, RankByOptimalCountIsCompleteRanking) {
  const auto ranking = rank_by_optimal_count(dataset());
  EXPECT_EQ(ranking.size(), 640u);
  std::set<std::size_t> seen(ranking.begin(), ranking.end());
  EXPECT_EQ(seen.size(), 640u);
  // The first entry must win at least as often as the second.
  const auto counts = dataset().optimal_counts();
  EXPECT_GE(counts[ranking[0]], counts[ranking[1]]);
}

/// Contract shared by every pruner: exact budget, distinct, sorted, valid.
class PrunerContract
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PrunerContract, ReturnsExactDistinctSortedBudget) {
  const auto [pruner_idx, budget] = GetParam();
  data::ExtractionOptions extraction;
  extraction.vgg_batches = {1};
  extraction.resnet_batches = {1};
  extraction.mobilenet_batches = {1};
  const auto dataset = data::build_paper_dataset({}, extraction);

  auto pruners = all_pruners(3);
  const auto& pruner = pruners[static_cast<std::size_t>(pruner_idx)];
  const auto configs = pruner->prune(dataset, budget);
  EXPECT_EQ(configs.size(), budget) << pruner->name();
  std::set<std::size_t> seen(configs.begin(), configs.end());
  EXPECT_EQ(seen.size(), budget) << pruner->name();
  EXPECT_TRUE(std::is_sorted(configs.begin(), configs.end()));
  for (const std::size_t c : configs) EXPECT_LT(c, 640u);
}

std::string pruner_case_name(
    const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
  static const char* names[] = {"TopN", "KMeans", "HDBScan", "PcaKMeans",
                                "DTree"};
  return std::string(names[std::get<0>(info.param)]) + "_N" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrunersAllBudgets, PrunerContract,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(std::size_t{4}, std::size_t{8},
                                         std::size_t{15})),
    pruner_case_name);

TEST_F(PruningTest, TopNPicksMostFrequentWinners) {
  TopNPruner pruner;
  const auto configs = pruner.prune(dataset(), 5);
  const auto ranking = rank_by_optimal_count(dataset());
  const std::set<std::size_t> expected(ranking.begin(), ranking.begin() + 5);
  const std::set<std::size_t> actual(configs.begin(), configs.end());
  EXPECT_EQ(actual, expected);
}

TEST_F(PruningTest, PrunersAreDeterministic) {
  for (const auto& pruner : all_pruners(17)) {
    const auto a = pruner->prune(dataset(), 8);
    const auto b = pruner->prune(dataset(), 8);
    EXPECT_EQ(a, b) << pruner->name();
  }
  // And a second instance with the same seed agrees.
  KMeansPruner km1(5);
  KMeansPruner km2(5);
  EXPECT_EQ(km1.prune(dataset(), 8), km2.prune(dataset(), 8));
}

TEST_F(PruningTest, BudgetLargerThanConfigSpaceIsClamped) {
  TopNPruner pruner;
  const auto configs = pruner.prune(dataset(), 10000);
  EXPECT_EQ(configs.size(), 640u);
}

TEST_F(PruningTest, ZeroBudgetThrows) {
  TopNPruner pruner;
  EXPECT_THROW((void)pruner.prune(dataset(), 0), common::Error);
}

TEST_F(PruningTest, CeilingIncreasesWithBudget) {
  DecisionTreePruner pruner;
  double prev = 0.0;
  for (const std::size_t budget : {2u, 4u, 8u, 16u, 64u}) {
    const auto configs = pruner.prune(dataset(), budget);
    const double ceiling = pruning_ceiling(dataset(), configs);
    EXPECT_GE(ceiling, prev - 0.02) << "budget " << budget;
    prev = std::max(prev, ceiling);
  }
}

TEST_F(PruningTest, FullBudgetCeilingIsPerfect) {
  TopNPruner pruner;
  const auto all = pruner.prune(dataset(), 640);
  EXPECT_DOUBLE_EQ(pruning_ceiling(dataset(), all), 1.0);
}

TEST_F(PruningTest, ClusteringCoversBetterThanWorstCase) {
  // Every pruner at budget 8 should keep at least 70% of optimal on its own
  // training data — they are designed to cover the behaviour families.
  for (const auto& pruner : all_pruners(1)) {
    const auto configs = pruner->prune(dataset(), 8);
    EXPECT_GT(pruning_ceiling(dataset(), configs), 0.7) << pruner->name();
  }
}

TEST_F(PruningTest, AllPrunersHaveDistinctNames) {
  std::set<std::string> names;
  for (const auto& pruner : all_pruners()) names.insert(pruner->name());
  EXPECT_EQ(names.size(), 5u);
}

TEST_F(PruningTest, CertifiedPrunerDropsUncertifiedConfigs) {
  TopNPruner top_n;
  const auto unfiltered = top_n.prune(dataset(), 8);
  std::vector<bool> safe(dataset().num_configs(), true);
  safe[unfiltered[0]] = false;  // revoke the favourite's certificate

  CertifiedPruner certified(std::make_unique<TopNPruner>(), safe);
  EXPECT_EQ(certified.name(), "TopN+Certified");
  const auto configs = certified.prune(dataset(), 8);
  EXPECT_EQ(configs.size(), 8u);
  EXPECT_TRUE(std::is_sorted(configs.begin(), configs.end()));
  for (const auto c : configs) {
    EXPECT_TRUE(safe[c]) << "config " << c << " has no SAFE certificate";
  }
}

TEST_F(PruningTest, CertifiedPrunerClampsBudgetToCertifiedConfigs) {
  std::vector<bool> safe(dataset().num_configs(), false);
  safe[7] = safe[200] = safe[639] = true;
  CertifiedPruner certified(std::make_unique<TopNPruner>(), safe);
  const auto configs = certified.prune(dataset(), 8);
  EXPECT_EQ(configs.size(), 3u);
  for (const auto c : configs) EXPECT_TRUE(safe[c]);
}

TEST_F(PruningTest, CertifiedPrunerRejectsDegenerateInputs) {
  EXPECT_THROW(CertifiedPruner(nullptr, {true}), common::Error);
  EXPECT_THROW(CertifiedPruner(std::make_unique<TopNPruner>(),
                               std::vector<bool>(640, false)),
               common::Error);
  CertifiedPruner short_mask(std::make_unique<TopNPruner>(),
                             std::vector<bool>(10, true));
  EXPECT_THROW((void)short_mask.prune(dataset(), 4), common::Error);
}

}  // namespace
}  // namespace aks::select
