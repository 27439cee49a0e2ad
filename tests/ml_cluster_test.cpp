#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/hdbscan.hpp"
#include "ml/kmeans.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {
namespace {

/// Three well-separated Gaussian blobs in 2-D.
Matrix three_blobs(std::size_t per_blob, std::uint64_t seed,
                   double spread = 0.3) {
  common::Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  Matrix x(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      x(b * per_blob + i, 0) = centers[b][0] + rng.normal(0, spread);
      x(b * per_blob + i, 1) = centers[b][1] + rng.normal(0, spread);
    }
  }
  return x;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  const Matrix x = three_blobs(20, 1);
  KMeansOptions options;
  options.n_clusters = 3;
  options.seed = 7;
  KMeans km(options);
  km.fit(x);
  // Each blob must be pure: all 20 points share a label.
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t label = km.labels()[b * 20];
    for (std::size_t i = 1; i < 20; ++i) {
      EXPECT_EQ(km.labels()[b * 20 + i], label) << "blob " << b;
    }
  }
  // And the three blobs get three distinct labels.
  std::set<std::size_t> labels(km.labels().begin(), km.labels().end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeans, CentroidsNearBlobCenters) {
  const Matrix x = three_blobs(30, 2);
  KMeansOptions options;
  options.n_clusters = 3;
  KMeans km(options);
  km.fit(x);
  // Every true center must have a centroid within 0.5.
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (const auto& center : centers) {
    double best = 1e9;
    for (std::size_t c = 0; c < 3; ++c) {
      best = std::min(best, distance(km.centroids().row(c),
                                     std::span<const double>(center, 2)));
    }
    EXPECT_LT(best, 0.5);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  const Matrix x = three_blobs(20, 3, 1.0);
  double prev = 1e300;
  for (int k = 1; k <= 6; ++k) {
    KMeansOptions options;
    options.n_clusters = k;
    options.seed = 5;
    KMeans km(options);
    km.fit(x);
    EXPECT_LE(km.inertia(), prev + 1e-9) << "k=" << k;
    prev = km.inertia();
  }
}

TEST(KMeans, DeterministicForSeed) {
  const Matrix x = three_blobs(15, 4, 1.5);
  KMeansOptions options;
  options.n_clusters = 4;
  options.seed = 99;
  KMeans a(options);
  a.fit(x);
  KMeans b(options);
  b.fit(x);
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_DOUBLE_EQ(a.inertia(), b.inertia());
}

TEST(KMeans, PredictAssignsNearestCentroid) {
  const Matrix x = three_blobs(20, 5);
  KMeansOptions options;
  options.n_clusters = 3;
  KMeans km(options);
  km.fit(x);
  const Matrix probes{{0.1, 0.1}, {9.8, 0.1}, {0.1, 9.9}};
  const auto labels = km.predict(probes);
  std::set<std::size_t> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(KMeans, MedoidRowsBelongToTheirClusters) {
  const Matrix x = three_blobs(20, 6);
  KMeansOptions options;
  options.n_clusters = 3;
  KMeans km(options);
  km.fit(x);
  const auto medoids = km.medoid_rows(x);
  ASSERT_EQ(medoids.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(km.labels()[medoids[c]], c);
  }
}

TEST(KMeans, MoreClustersThanPointsThrows) {
  KMeansOptions options;
  options.n_clusters = 10;
  KMeans km(options);
  EXPECT_THROW(km.fit(Matrix(3, 2)), common::Error);
}

TEST(KMeans, IdenticalPointsAreHandled) {
  Matrix x(10, 2, 1.0);  // all points identical
  KMeansOptions options;
  options.n_clusters = 2;
  KMeans km(options);
  km.fit(x);
  EXPECT_NEAR(km.inertia(), 0.0, 1e-18);
}

TEST(KMeans, RejectsBadOptions) {
  KMeansOptions options;
  options.n_clusters = 0;
  EXPECT_THROW(KMeans{options}, common::Error);
}

TEST(Hdbscan, FindsBlobsAndRejectsNoise) {
  Matrix blobs = three_blobs(20, 7);
  // Add a few far-away isolated points that should become noise.
  common::Rng rng(13);
  Matrix x(blobs.rows() + 3, 2);
  for (std::size_t r = 0; r < blobs.rows(); ++r) {
    x(r, 0) = blobs(r, 0);
    x(r, 1) = blobs(r, 1);
  }
  x(60, 0) = 50;  x(60, 1) = 50;
  x(61, 0) = -40; x(61, 1) = 55;
  x(62, 0) = 70;  x(62, 1) = -45;

  HdbscanOptions options;
  options.min_cluster_size = 5;
  Hdbscan h(options);
  h.fit(x);
  EXPECT_EQ(h.num_clusters(), 3u);
  // Isolated points are labelled noise.
  EXPECT_EQ(h.labels()[60], -1);
  EXPECT_EQ(h.labels()[61], -1);
  EXPECT_EQ(h.labels()[62], -1);
  // Blobs are pure.
  for (std::size_t b = 0; b < 3; ++b) {
    const int label = h.labels()[b * 20];
    EXPECT_GE(label, 0);
    for (std::size_t i = 1; i < 20; ++i) {
      EXPECT_EQ(h.labels()[b * 20 + i], label);
    }
  }
}

TEST(Hdbscan, StabilitiesMatchClusterCount) {
  const Matrix x = three_blobs(15, 21);
  Hdbscan h(HdbscanOptions{4, 0, false});
  h.fit(x);
  EXPECT_EQ(h.cluster_stabilities().size(), h.num_clusters());
  for (const double s : h.cluster_stabilities()) EXPECT_GT(s, 0.0);
}

TEST(Hdbscan, ProbabilitiesInUnitIntervalAndZeroForNoise) {
  Matrix x = three_blobs(15, 22);
  Hdbscan h(HdbscanOptions{5, 0, false});
  h.fit(x);
  ASSERT_EQ(h.probabilities().size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_GE(h.probabilities()[i], 0.0);
    EXPECT_LE(h.probabilities()[i], 1.0);
    if (h.labels()[i] < 0) {
      EXPECT_DOUBLE_EQ(h.probabilities()[i], 0.0);
    }
  }
}

TEST(Hdbscan, UniformDataYieldsFewOrNoClusters) {
  common::Rng rng(5);
  Matrix x(60, 2);
  for (auto& v : x.data()) v = rng.uniform(0, 1);
  Hdbscan h(HdbscanOptions{15, 0, false});
  h.fit(x);
  // Uniform data has no density structure at this cluster size; at most a
  // couple of weak clusters should appear.
  EXPECT_LE(h.num_clusters(), 2u);
}

TEST(Hdbscan, AllowSingleClusterRecoversOneBlob) {
  common::Rng rng(6);
  Matrix x(40, 2);
  for (auto& v : x.data()) v = rng.normal(0, 0.2);
  Hdbscan strict(HdbscanOptions{5, 0, false});
  strict.fit(x);
  Hdbscan relaxed(HdbscanOptions{5, 0, true});
  relaxed.fit(x);
  // With one blob only the root is a cluster; allow_single_cluster exposes
  // it while the default hides it.
  EXPECT_GE(relaxed.num_clusters(), strict.num_clusters());
}

TEST(Hdbscan, MedoidsAreClusterMembers) {
  const Matrix x = three_blobs(20, 30);
  Hdbscan h(HdbscanOptions{5, 0, false});
  h.fit(x);
  const auto medoids = h.medoid_rows(x);
  ASSERT_EQ(medoids.size(), h.num_clusters());
  for (std::size_t c = 0; c < medoids.size(); ++c) {
    EXPECT_EQ(h.labels()[medoids[c]], static_cast<int>(c));
  }
}

TEST(Hdbscan, DeterministicAcrossRuns) {
  const Matrix x = three_blobs(12, 41, 0.8);
  Hdbscan a(HdbscanOptions{4, 0, false});
  a.fit(x);
  Hdbscan b(HdbscanOptions{4, 0, false});
  b.fit(x);
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(Hdbscan, MinSamplesOverrideChangesDensityEstimate) {
  const Matrix x = three_blobs(10, 50, 1.2);
  Hdbscan loose(HdbscanOptions{5, 2, false});
  loose.fit(x);
  Hdbscan tight(HdbscanOptions{5, 9, false});
  tight.fit(x);
  // Both must run; larger min_samples smooths density and cannot invent
  // more clusters than the loose setting finds.
  EXPECT_LE(tight.num_clusters(), loose.num_clusters() + 1);
}

TEST(Hdbscan, RejectsBadOptions) {
  EXPECT_THROW(Hdbscan(HdbscanOptions{1, 0, false}), common::Error);
  Hdbscan h(HdbscanOptions{3, 10, false});
  EXPECT_THROW(h.fit(Matrix(5, 2)), common::Error);  // min_samples >= n
  Hdbscan ok(HdbscanOptions{3, 0, false});
  EXPECT_THROW(ok.fit(Matrix(1, 2)), common::Error);
}

}  // namespace
}  // namespace aks::ml
