#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/agglomerative.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/linalg.hpp"
#include "ml/metrics.hpp"

namespace aks::ml {
namespace {

void threshold_problem(std::size_t n, std::uint64_t seed, Matrix& x,
                       std::vector<int>& y) {
  common::Rng rng(seed);
  x.resize(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0, 100);
    x(i, 1) = rng.uniform(0, 100);
    y[i] = x(i, 0) <= 50 ? (x(i, 1) <= 30 ? 0 : 1) : 2;
  }
}

TEST(Gbm, LearnsThresholdProblem) {
  Matrix x, x_test;
  std::vector<int> y, y_test;
  threshold_problem(300, 1, x, y);
  threshold_problem(100, 2, x_test, y_test);
  GradientBoostedClassifier gbm;
  gbm.fit(x, y);
  EXPECT_GT(accuracy(y, gbm.predict(x)), 0.98);
  EXPECT_GT(accuracy(y_test, gbm.predict(x_test)), 0.93);
  EXPECT_EQ(gbm.num_classes(), 3);
  EXPECT_EQ(gbm.num_rounds(), 50u);
}

TEST(Gbm, MoreRoundsImproveTrainingFit) {
  Matrix x;
  std::vector<int> y;
  threshold_problem(200, 3, x, y);
  GbmOptions few;
  few.n_rounds = 2;
  GradientBoostedClassifier small(few);
  small.fit(x, y);
  GbmOptions many;
  many.n_rounds = 40;
  GradientBoostedClassifier large(many);
  large.fit(x, y);
  EXPECT_GE(accuracy(y, large.predict(x)), accuracy(y, small.predict(x)));
}

TEST(Gbm, DecisionScoresOrderedForConfidentPoints) {
  Matrix x;
  std::vector<int> y;
  threshold_problem(200, 4, x, y);
  GradientBoostedClassifier gbm;
  gbm.fit(x, y);
  // Deep inside class-2 territory the class-2 score must dominate.
  const double probe[] = {90.0, 50.0};
  const auto scores = gbm.decision_row(probe);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[2], scores[0]);
  EXPECT_GT(scores[2], scores[1]);
}

TEST(Gbm, BinaryProblemWorks) {
  common::Rng rng(5);
  Matrix x(80, 1);
  std::vector<int> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    y[i] = x(i, 0) > 5.0 ? 1 : 0;
  }
  GradientBoostedClassifier gbm;
  gbm.fit(x, y);
  EXPECT_GT(accuracy(y, gbm.predict(x)), 0.97);
}

TEST(Gbm, RejectsBadOptions) {
  GbmOptions zero;
  zero.n_rounds = 0;
  EXPECT_THROW(GradientBoostedClassifier{zero}, common::Error);
  GbmOptions lr;
  lr.learning_rate = 0.0;
  EXPECT_THROW(GradientBoostedClassifier{lr}, common::Error);
  GradientBoostedClassifier gbm;
  EXPECT_THROW(gbm.fit(Matrix(3, 1), {0, 1}), common::Error);
  EXPECT_THROW((void)gbm.predict_row(std::vector<double>{1.0}), common::Error);
}

Matrix blobs(std::size_t per_blob, std::uint64_t seed) {
  common::Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  Matrix x(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      x(b * per_blob + i, 0) = centers[b][0] + rng.normal(0, 0.4);
      x(b * per_blob + i, 1) = centers[b][1] + rng.normal(0, 0.4);
    }
  }
  return x;
}

TEST(Agglomerative, RecoversBlobsAtExactBudget) {
  const Matrix x = blobs(15, 1);
  Agglomerative agg(AgglomerativeOptions{3, Linkage::kAverage});
  agg.fit(x);
  EXPECT_EQ(agg.num_clusters(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t label = agg.labels()[b * 15];
    for (std::size_t i = 1; i < 15; ++i) {
      EXPECT_EQ(agg.labels()[b * 15 + i], label) << "blob " << b;
    }
  }
}

TEST(Agglomerative, AllLinkagesSolveSeparatedBlobs) {
  const Matrix x = blobs(12, 2);
  for (const auto linkage :
       {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
    Agglomerative agg(AgglomerativeOptions{3, linkage});
    agg.fit(x);
    std::set<std::size_t> labels(agg.labels().begin(), agg.labels().end());
    EXPECT_EQ(labels.size(), 3u);
  }
}

TEST(Agglomerative, MergeDistancesAreRecorded) {
  const Matrix x = blobs(10, 3);
  Agglomerative agg(AgglomerativeOptions{2, Linkage::kAverage});
  agg.fit(x);
  // n - n_clusters merges.
  EXPECT_EQ(agg.merge_distances().size(), 28u);
  // The final merges (joining blobs) must be far larger than the first
  // (joining neighbours inside a blob).
  EXPECT_GT(agg.merge_distances().back(), 5.0 * agg.merge_distances().front());
}

TEST(Agglomerative, MedoidsBelongToTheirClusters) {
  const Matrix x = blobs(10, 4);
  Agglomerative agg(AgglomerativeOptions{3, Linkage::kAverage});
  agg.fit(x);
  const auto medoids = agg.medoid_rows(x);
  ASSERT_EQ(medoids.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(agg.labels()[medoids[c]], c);
  }
}

TEST(Agglomerative, DeterministicAcrossRuns) {
  const Matrix x = blobs(8, 5);
  Agglomerative a(AgglomerativeOptions{4, Linkage::kAverage});
  a.fit(x);
  Agglomerative b(AgglomerativeOptions{4, Linkage::kAverage});
  b.fit(x);
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(Agglomerative, SingleClusterGroupsEverything) {
  const Matrix x = blobs(5, 6);
  Agglomerative agg(AgglomerativeOptions{1, Linkage::kComplete});
  agg.fit(x);
  EXPECT_EQ(agg.num_clusters(), 1u);
  for (const auto label : agg.labels()) EXPECT_EQ(label, 0u);
}

TEST(Agglomerative, RejectsBadInput) {
  EXPECT_THROW(Agglomerative(AgglomerativeOptions{0, Linkage::kAverage}),
               common::Error);
  Agglomerative agg(AgglomerativeOptions{5, Linkage::kAverage});
  EXPECT_THROW(agg.fit(Matrix(3, 2)), common::Error);
}

}  // namespace
}  // namespace aks::ml
