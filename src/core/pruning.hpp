// Configuration pruning — Section III of the paper.
//
// A pruner looks at the training dataset (shapes x 640 normalised scores)
// and picks at most N configurations to ship in the compute library. Five
// approaches are implemented, matching the paper:
//
//   top_n      — the N configurations that are optimal most often;
//   kmeans     — k-means over the 640-dim performance vectors; each cluster
//                medoid contributes its best configuration;
//   hdbscan    — HDBSCAN over the same vectors; the N most stable clusters
//                contribute their medoids' best configurations;
//   pca_kmeans — k-means in PCA space; centroids are mapped back to the
//                original space and contribute their argmax configuration;
//   dtree      — a multi-output regression tree from matrix sizes to the
//                performance vector, grown to at most N leaves; each leaf's
//                mean vector contributes its argmax configuration.
//
// Every pruner returns *exactly* min(N, 640) distinct canonical indices:
// when clustering yields duplicates (two clusters preferring the same
// kernel) or too few clusters, the list is padded from the top-N ranking so
// downstream comparisons always see the same budget.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/perf_dataset.hpp"

namespace aks::select {

class ConfigPruner {
 public:
  virtual ~ConfigPruner() = default;

  /// Human-readable identifier used in reports (e.g. "PCA+KMeans").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses at most `max_configs` canonical configuration indices from the
  /// training data. The result is deduplicated, padded to exactly
  /// min(max_configs, 640) entries and sorted ascending.
  [[nodiscard]] virtual std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const = 0;
};

/// Ranks configurations by how often they are optimal, breaking ties with
/// the mean score (used by TopNPruner and as padding by all others).
[[nodiscard]] std::vector<std::size_t> rank_by_optimal_count(
    const data::PerfDataset& train);

class TopNPruner final : public ConfigPruner {
 public:
  [[nodiscard]] std::string name() const override { return "TopN"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;
};

class KMeansPruner final : public ConfigPruner {
 public:
  explicit KMeansPruner(std::uint64_t seed = 0) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "KMeans"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;

 private:
  std::uint64_t seed_;
};

class PcaKMeansPruner final : public ConfigPruner {
 public:
  /// `pca_components` 0 selects the smallest count covering 90% variance.
  explicit PcaKMeansPruner(int pca_components = 0, std::uint64_t seed = 0)
      : pca_components_(pca_components), seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "PCA+KMeans"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;

 private:
  int pca_components_;
  std::uint64_t seed_;
};

class HdbscanPruner final : public ConfigPruner {
 public:
  explicit HdbscanPruner(int min_cluster_size = 4)
      : min_cluster_size_(min_cluster_size) {}
  [[nodiscard]] std::string name() const override { return "HDBScan"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;

 private:
  int min_cluster_size_;
};

class DecisionTreePruner final : public ConfigPruner {
 public:
  [[nodiscard]] std::string name() const override { return "DecisionTree"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;
};

/// Extension beyond the paper's five: deterministic bottom-up hierarchical
/// clustering of the performance vectors (average linkage), medoids as
/// representatives. Unlike k-means it needs no seeding and unlike HDBSCAN
/// it honours the budget exactly.
class AgglomerativePruner final : public ConfigPruner {
 public:
  [[nodiscard]] std::string name() const override { return "Agglomerative"; }
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;
};

/// Decorator that removes configurations whose symbolic safety certificate
/// is not SAFE from another pruner's selection, re-padding from the
/// safety-restricted top-N ranking so the budget is still met. The mask is
/// a plain per-config bitmap (index = canonical config index, true = SAFE
/// on the target device(s)) — typically
/// `check::symbolic::CertifyReport::safe_mask()`, carried across the
/// process boundary as a certificate file, keeping this layer free of a
/// dependency on the analysis tooling. It is the one mask filter: a config
/// with a config-lint finding on a device is never SAFE there, because the
/// lint reports the certificate's capacity rules.
class CertifiedPruner final : public ConfigPruner {
 public:
  CertifiedPruner(std::unique_ptr<ConfigPruner> inner, std::vector<bool> safe);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::size_t> prune(
      const data::PerfDataset& train, std::size_t max_configs) const override;

 private:
  std::unique_ptr<ConfigPruner> inner_;
  std::vector<bool> safe_;
};

/// The paper's five pruning approaches, in Figure 4's order.
[[nodiscard]] std::vector<std::unique_ptr<ConfigPruner>> all_pruners(
    std::uint64_t seed = 0);

}  // namespace aks::select
