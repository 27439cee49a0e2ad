// CART decision trees, in the two roles the paper uses them:
//
//  * multi-output regression from matrix sizes to the 640-vector of
//    normalised performances, with `max_leaf_nodes` bounding the number of
//    distinct predicted vectors — Section III's decision-tree pruner;
//  * classification from matrix sizes to the best pruned configuration —
//    Section IV's runtime selector, deployable as nested if statements.
//
// Growth is best-first (largest impurity improvement next, as scikit-learn
// does when max_leaf_nodes is set) so a leaf budget spends itself where it
// buys the most.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace aks::ml {

struct TreeOptions {
  /// Maximum number of leaves; 0 means unlimited.
  int max_leaf_nodes = 0;
  /// Maximum depth; 0 means unlimited.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Features examined per split; 0 means all. Used by random forests.
  int max_features = 0;
  /// Seed for feature subsampling (only used when max_features > 0).
  std::uint64_t seed = 0;
};

/// Impurity-weighted feature importances of a fitted tree (Gini/MSE
/// importance): for each feature, the total impurity decrease of the splits
/// that use it, normalised to sum to 1. Shared by both tree types.
[[nodiscard]] std::vector<double> feature_importances(
    const std::vector<struct TreeNode>& nodes, std::size_t num_features);

/// One node of a fitted tree. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  /// Mean output vector (regression) or class-count vector (classification).
  std::vector<double> value;
  std::size_t n_samples = 0;
  double impurity = 0.0;

  [[nodiscard]] bool is_leaf() const { return feature < 0; }
};

class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {});

  /// Multi-output regression: y has one row per sample.
  void fit(const common::Matrix& x, const common::Matrix& y);

  [[nodiscard]] bool fitted() const { return !nodes_.empty(); }
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t num_leaves() const;

  /// Predicted output vector for one feature row.
  [[nodiscard]] const std::vector<double>& predict_row(
      std::span<const double> row) const;
  [[nodiscard]] common::Matrix predict(const common::Matrix& x) const;

  /// Index (into nodes()) of the leaf a feature row lands in. Used by
  /// gradient boosting to re-estimate leaf values under its own loss.
  [[nodiscard]] std::size_t leaf_index_row(std::span<const double> row) const;

  /// The distinct leaf value vectors, in node order — the cluster
  /// representatives the pruner consumes.
  [[nodiscard]] std::vector<std::vector<double>> leaf_values() const;

 private:
  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::size_t num_features_ = 0;
};

class DecisionTreeClassifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {});

  /// Reconstructs a fitted classifier from serialised nodes (used by
  /// core/serialize). Validates the node graph: every child index lies
  /// after its parent's and in range, every leaf value has num_classes
  /// entries.
  static DecisionTreeClassifier from_nodes(std::vector<TreeNode> nodes,
                                           int num_classes,
                                           std::size_t num_features);

  /// `y` holds labels in [0, num_classes); num_classes 0 means max(y)+1.
  void fit(const common::Matrix& x, const std::vector<int>& y,
           int num_classes = 0);

  [[nodiscard]] bool fitted() const { return !nodes_.empty(); }
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t num_leaves() const;
  [[nodiscard]] int num_classes() const { return num_classes_; }

  [[nodiscard]] int predict_row(std::span<const double> row) const;
  [[nodiscard]] std::vector<int> predict(const common::Matrix& x) const;
  /// Class probabilities (leaf class frequencies).
  [[nodiscard]] std::vector<double> predict_proba_row(
      std::span<const double> row) const;

 private:
  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::size_t num_features_ = 0;
  int num_classes_ = 0;
};

}  // namespace aks::ml
