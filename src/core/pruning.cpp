#include "core/pruning.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "ml/agglomerative.hpp"
#include "ml/decision_tree.hpp"
#include "ml/hdbscan.hpp"
#include "ml/kmeans.hpp"
#include "ml/pca.hpp"

namespace aks::select {

namespace {

/// Deduplicates `chosen` (keeping order), pads from the top-count ranking,
/// truncates to the budget and sorts — the common post-processing of every
/// pruner (see file comment in pruning.hpp).
std::vector<std::size_t> finalize_selection(std::vector<std::size_t> chosen,
                                            const data::PerfDataset& train,
                                            std::size_t max_configs) {
  const std::size_t budget = std::min(max_configs, train.num_configs());
  AKS_CHECK(budget > 0, "config budget must be positive");
  std::vector<std::size_t> out;
  std::set<std::size_t> seen;
  for (const std::size_t c : chosen) {
    AKS_CHECK(c < train.num_configs(), "config index out of range");
    if (out.size() == budget) break;
    if (seen.insert(c).second) out.push_back(c);
  }
  if (out.size() < budget) {
    for (const std::size_t c : rank_by_optimal_count(train)) {
      if (out.size() == budget) break;
      if (seen.insert(c).second) out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Best configuration for each of a set of representative score vectors.
std::vector<std::size_t> argmax_configs(
    const std::vector<std::vector<double>>& representatives) {
  std::vector<std::size_t> out;
  out.reserve(representatives.size());
  for (const auto& rep : representatives) {
    out.push_back(common::argmax(rep));
  }
  return out;
}

/// Shared body of the mask-filtering decorators: runs `inner`, drops
/// configurations the mask rejects, and re-pads from the mask-restricted
/// ranking. The budget caps at how many configurations survive the mask.
std::vector<std::size_t> prune_with_mask(const ConfigPruner& inner,
                                         const std::vector<bool>& mask,
                                         const data::PerfDataset& train,
                                         std::size_t max_configs) {
  AKS_CHECK(mask.size() == train.num_configs(),
            "config mask covers " << mask.size() << " configs, dataset has "
                                  << train.num_configs());
  const auto allowed = [&mask](std::size_t c) { return mask[c]; };

  std::vector<std::size_t> chosen;
  for (const std::size_t c : inner.prune(train, max_configs)) {
    if (allowed(c)) chosen.push_back(c);
  }
  const std::size_t num_allowed = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  const std::size_t budget =
      std::min({max_configs, train.num_configs(), num_allowed});
  if (chosen.size() < budget) {
    std::set<std::size_t> seen(chosen.begin(), chosen.end());
    for (const std::size_t c : rank_by_optimal_count(train)) {
      if (chosen.size() == budget) break;
      if (allowed(c) && seen.insert(c).second) chosen.push_back(c);
    }
  }
  return finalize_selection(std::move(chosen), train, budget);
}

}  // namespace

std::vector<std::size_t> rank_by_optimal_count(const data::PerfDataset& train) {
  const auto counts = train.optimal_counts();
  const auto means = train.mean_scores();
  // Composite key: count dominates, mean score breaks ties.
  std::vector<double> key(counts.size());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    key[c] = static_cast<double>(counts[c]) + means[c];
  }
  return common::argsort_descending(key);
}

std::vector<std::size_t> TopNPruner::prune(const data::PerfDataset& train,
                                           std::size_t max_configs) const {
  return finalize_selection(rank_by_optimal_count(train), train, max_configs);
}

std::vector<std::size_t> KMeansPruner::prune(const data::PerfDataset& train,
                                             std::size_t max_configs) const {
  ml::KMeansOptions opts;
  opts.n_clusters = static_cast<int>(
      std::min(max_configs, train.num_shapes()));
  opts.seed = seed_;
  ml::KMeans kmeans(opts);
  kmeans.fit(train.scores());
  // Each centroid is the mean performance vector of a behaviour family; its
  // argmax is the configuration that serves that family best on average
  // (the paper: the configuration "that gives the best performance result
  // for each of the representatives").
  std::vector<std::size_t> chosen;
  for (std::size_t c = 0; c < kmeans.centroids().rows(); ++c) {
    chosen.push_back(common::argmax(kmeans.centroids().row(c)));
  }
  return finalize_selection(std::move(chosen), train, max_configs);
}

std::vector<std::size_t> PcaKMeansPruner::prune(const data::PerfDataset& train,
                                                std::size_t max_configs) const {
  ml::Pca pca;
  pca.fit(train.scores());
  const std::size_t dims =
      pca_components_ > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(pca_components_),
                                  pca.num_components())
          : pca.components_for_variance(0.90);

  // Re-fit with the chosen dimensionality to keep transform cheap.
  ml::Pca reduced(static_cast<int>(dims));
  reduced.fit(train.scores());
  const common::Matrix projected = reduced.transform(train.scores());

  ml::KMeansOptions opts;
  opts.n_clusters =
      static_cast<int>(std::min(max_configs, train.num_shapes()));
  opts.seed = seed_;
  ml::KMeans kmeans(opts);
  kmeans.fit(projected);

  // Map centroids back to the 640-dim space (the paper: "centroids ...
  // mapped back to the original coordinate space to give representatives").
  const common::Matrix representatives =
      reduced.inverse_transform(kmeans.centroids());
  std::vector<std::size_t> chosen;
  for (std::size_t c = 0; c < representatives.rows(); ++c) {
    chosen.push_back(common::argmax(representatives.row(c)));
  }
  return finalize_selection(std::move(chosen), train, max_configs);
}

std::vector<std::size_t> HdbscanPruner::prune(const data::PerfDataset& train,
                                              std::size_t max_configs) const {
  ml::HdbscanOptions opts;
  opts.min_cluster_size = min_cluster_size_;
  ml::Hdbscan clusterer(opts);
  clusterer.fit(train.scores());

  // Rank clusters by stability, keep the medoids of the most stable N.
  const auto& stabilities = clusterer.cluster_stabilities();
  const auto medoids = clusterer.medoid_rows(train.scores());
  const auto order = common::argsort_descending(stabilities);
  std::vector<std::size_t> chosen;
  for (const std::size_t cluster : order) {
    if (chosen.size() == max_configs) break;
    chosen.push_back(train.best_config(medoids[cluster]));
  }
  return finalize_selection(std::move(chosen), train, max_configs);
}

std::vector<std::size_t> DecisionTreePruner::prune(
    const data::PerfDataset& train, std::size_t max_configs) const {
  ml::TreeOptions opts;
  opts.max_leaf_nodes = static_cast<int>(std::max<std::size_t>(2, max_configs));
  ml::DecisionTreeRegressor tree(opts);
  tree.fit(train.features(), train.scores());
  std::vector<std::size_t> chosen = argmax_configs(tree.leaf_values());
  return finalize_selection(std::move(chosen), train, max_configs);
}

std::vector<std::size_t> AgglomerativePruner::prune(
    const data::PerfDataset& train, std::size_t max_configs) const {
  ml::AgglomerativeOptions opts;
  opts.n_clusters =
      static_cast<int>(std::min(max_configs, train.num_shapes()));
  opts.linkage = ml::Linkage::kAverage;
  ml::Agglomerative clusterer(opts);
  clusterer.fit(train.scores());
  std::vector<std::size_t> chosen;
  for (const std::size_t row : clusterer.medoid_rows(train.scores())) {
    chosen.push_back(train.best_config(row));
  }
  return finalize_selection(std::move(chosen), train, max_configs);
}

ValidityFilteredPruner::ValidityFilteredPruner(
    std::unique_ptr<ConfigPruner> inner, std::vector<bool> valid)
    : inner_(std::move(inner)), valid_(std::move(valid)) {
  AKS_CHECK(inner_ != nullptr, "ValidityFilteredPruner needs an inner pruner");
  AKS_CHECK(std::find(valid_.begin(), valid_.end(), true) != valid_.end(),
            "validity mask rejects every configuration");
}

std::string ValidityFilteredPruner::name() const {
  return inner_->name() + "+Lint";
}

std::vector<std::size_t> ValidityFilteredPruner::prune(
    const data::PerfDataset& train, std::size_t max_configs) const {
  return prune_with_mask(*inner_, valid_, train, max_configs);
}

CertifiedPruner::CertifiedPruner(std::unique_ptr<ConfigPruner> inner,
                                 std::vector<bool> safe)
    : inner_(std::move(inner)), safe_(std::move(safe)) {
  AKS_CHECK(inner_ != nullptr, "CertifiedPruner needs an inner pruner");
  AKS_CHECK(std::find(safe_.begin(), safe_.end(), true) != safe_.end(),
            "safety mask rejects every configuration");
}

std::string CertifiedPruner::name() const {
  return inner_->name() + "+Certified";
}

std::vector<std::size_t> CertifiedPruner::prune(
    const data::PerfDataset& train, std::size_t max_configs) const {
  return prune_with_mask(*inner_, safe_, train, max_configs);
}

std::vector<std::unique_ptr<ConfigPruner>> all_pruners(std::uint64_t seed) {
  std::vector<std::unique_ptr<ConfigPruner>> pruners;
  pruners.push_back(std::make_unique<TopNPruner>());
  pruners.push_back(std::make_unique<KMeansPruner>(seed));
  pruners.push_back(std::make_unique<HdbscanPruner>());
  pruners.push_back(std::make_unique<PcaKMeansPruner>(0, seed));
  pruners.push_back(std::make_unique<DecisionTreePruner>());
  return pruners;
}

}  // namespace aks::select
