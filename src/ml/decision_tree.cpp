#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aks::ml {

namespace {

/// Sufficient statistics for a sample set. For regression `sum` is the
/// per-output value sum and `sumsq` the total sum of squares; for
/// classification `sum` holds class counts and `sumsq` is unused. Both
/// impurities share the form  A - sum_j s_j^2 / n  (SSE resp. n * Gini).
struct Stats {
  std::vector<double> sum;
  double sumsq = 0.0;
  std::size_t n = 0;

  void init(std::size_t dim) {
    sum.assign(dim, 0.0);
    sumsq = 0.0;
    n = 0;
  }
};

struct Candidate {
  bool found = false;
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  /// Partition of the node's samples induced by the split.
  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
};

class Grower {
 public:
  Grower(const common::Matrix& x, const TreeOptions& options,
         bool classification, std::size_t out_dim,
         const common::Matrix* y_reg, const std::vector<int>* y_cls)
      : x_(x),
        options_(options),
        classification_(classification),
        out_dim_(out_dim),
        y_reg_(y_reg),
        y_cls_(y_cls),
        rng_(options.seed) {}

  std::vector<TreeNode> grow() {
    std::vector<std::size_t> all(x_.rows());
    std::iota(all.begin(), all.end(), std::size_t{0});

    std::vector<TreeNode> nodes;
    nodes.push_back(make_node(all));

    // Open leaves ordered by achievable impurity improvement.
    struct Open {
      int node = 0;
      int depth = 0;
      Candidate split;
      std::vector<std::size_t> indices;
    };
    auto cmp = [](const Open& a, const Open& b) {
      return a.split.gain < b.split.gain;
    };
    std::priority_queue<Open, std::vector<Open>, decltype(cmp)> queue(cmp);

    auto try_enqueue = [&](int node, int depth,
                           std::vector<std::size_t> indices) {
      if (options_.max_depth > 0 && depth >= options_.max_depth) return;
      if (indices.size() <
          static_cast<std::size_t>(options_.min_samples_split)) {
        return;
      }
      Candidate split = best_split(indices, nodes[static_cast<std::size_t>(node)]);
      if (!split.found || split.gain <= 1e-12) return;
      queue.push(Open{node, depth, std::move(split), std::move(indices)});
    };

    try_enqueue(0, 0, std::move(all));
    std::size_t leaves = 1;
    const std::size_t max_leaves =
        options_.max_leaf_nodes > 0
            ? static_cast<std::size_t>(options_.max_leaf_nodes)
            : std::numeric_limits<std::size_t>::max();

    while (!queue.empty() && leaves < max_leaves) {
      Open open = queue.top();
      queue.pop();
      const int left_id = static_cast<int>(nodes.size());
      const int right_id = left_id + 1;
      // push_back may reallocate, so finish all appends before taking a
      // reference to the parent node.
      nodes.push_back(make_node(open.split.left_idx));
      nodes.push_back(make_node(open.split.right_idx));
      auto& node = nodes[static_cast<std::size_t>(open.node)];
      node.feature = open.split.feature;
      node.threshold = open.split.threshold;
      node.left = left_id;
      node.right = right_id;
      ++leaves;  // one leaf became two

      try_enqueue(nodes[static_cast<std::size_t>(open.node)].left,
                  open.depth + 1, std::move(open.split.left_idx));
      try_enqueue(nodes[static_cast<std::size_t>(open.node)].right,
                  open.depth + 1, std::move(open.split.right_idx));
    }
    return nodes;
  }

 private:
  void accumulate(Stats& stats, std::size_t sample) const {
    if (classification_) {
      stats.sum[static_cast<std::size_t>((*y_cls_)[sample])] += 1.0;
    } else {
      const auto row = y_reg_->row(sample);
      for (std::size_t d = 0; d < out_dim_; ++d) {
        stats.sum[d] += row[d];
        stats.sumsq += row[d] * row[d];
      }
    }
    ++stats.n;
  }

  [[nodiscard]] double impurity(const Stats& stats) const {
    if (stats.n == 0) return 0.0;
    double sq = 0.0;
    for (const double s : stats.sum) sq += s * s;
    const double base =
        classification_ ? static_cast<double>(stats.n) : stats.sumsq;
    return std::max(0.0, base - sq / static_cast<double>(stats.n));
  }

  [[nodiscard]] TreeNode make_node(const std::vector<std::size_t>& indices) const {
    Stats stats;
    stats.init(out_dim_);
    for (const std::size_t i : indices) accumulate(stats, i);
    TreeNode node;
    node.n_samples = stats.n;
    node.impurity = impurity(stats);
    node.value = stats.sum;
    if (!classification_) {
      for (auto& v : node.value) v /= static_cast<double>(stats.n);
    }
    return node;
  }

  [[nodiscard]] Candidate best_split(const std::vector<std::size_t>& indices,
                                     const TreeNode& node) {
    const std::size_t num_features = x_.cols();
    std::vector<std::size_t> features(num_features);
    std::iota(features.begin(), features.end(), std::size_t{0});
    if (options_.max_features > 0 &&
        static_cast<std::size_t>(options_.max_features) < num_features) {
      rng_.shuffle(features);
      features.resize(static_cast<std::size_t>(options_.max_features));
    }

    Candidate best;
    std::vector<std::pair<double, std::size_t>> sorted;
    Stats left;
    const auto min_leaf = static_cast<std::size_t>(options_.min_samples_leaf);

    for (const std::size_t f : features) {
      sorted.clear();
      sorted.reserve(indices.size());
      for (const std::size_t i : indices) sorted.emplace_back(x_(i, f), i);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;

      left.init(out_dim_);
      Stats right;
      right.init(out_dim_);
      for (const std::size_t i : indices) accumulate(right, i);

      for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
        const std::size_t sample = sorted[pos].second;
        // Move the sample from right to left.
        if (classification_) {
          const auto cls = static_cast<std::size_t>((*y_cls_)[sample]);
          left.sum[cls] += 1.0;
          right.sum[cls] -= 1.0;
        } else {
          const auto row = y_reg_->row(sample);
          for (std::size_t d = 0; d < out_dim_; ++d) {
            left.sum[d] += row[d];
            right.sum[d] -= row[d];
            left.sumsq += row[d] * row[d];
            right.sumsq -= row[d] * row[d];
          }
        }
        ++left.n;
        --right.n;

        if (sorted[pos].first == sorted[pos + 1].first) continue;
        if (left.n < min_leaf || right.n < min_leaf) continue;
        const double gain = node.impurity - impurity(left) - impurity(right);
        if (gain > best.gain) {
          best.found = true;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (sorted[pos].first + sorted[pos + 1].first);
          best.gain = gain;
        }
      }
    }

    if (best.found) {
      for (const std::size_t i : indices) {
        if (x_(i, static_cast<std::size_t>(best.feature)) <= best.threshold) {
          best.left_idx.push_back(i);
        } else {
          best.right_idx.push_back(i);
        }
      }
    }
    return best;
  }

  const common::Matrix& x_;
  TreeOptions options_;
  bool classification_;
  std::size_t out_dim_;
  const common::Matrix* y_reg_;
  const std::vector<int>* y_cls_;
  common::Rng rng_;
};

const TreeNode& descend(const std::vector<TreeNode>& nodes,
                        std::span<const double> row) {
  std::size_t cur = 0;
  while (!nodes[cur].is_leaf()) {
    const auto f = static_cast<std::size_t>(nodes[cur].feature);
    cur = static_cast<std::size_t>(row[f] <= nodes[cur].threshold
                                       ? nodes[cur].left
                                       : nodes[cur].right);
  }
  return nodes[cur];
}

std::size_t count_leaves(const std::vector<TreeNode>& nodes) {
  std::size_t leaves = 0;
  for (const auto& n : nodes) leaves += n.is_leaf() ? 1u : 0u;
  return leaves;
}

void validate_options(const TreeOptions& options) {
  AKS_CHECK(options.max_leaf_nodes >= 0, "max_leaf_nodes must be >= 0");
  AKS_CHECK(options.max_leaf_nodes != 1, "a tree needs at least 2 leaves");
  AKS_CHECK(options.min_samples_split >= 2, "min_samples_split must be >= 2");
  AKS_CHECK(options.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
}

}  // namespace

std::vector<double> feature_importances(const std::vector<TreeNode>& nodes,
                                        std::size_t num_features) {
  AKS_CHECK(!nodes.empty(), "feature_importances of an empty tree");
  std::vector<double> importances(num_features, 0.0);
  for (const auto& node : nodes) {
    if (node.is_leaf()) continue;
    const auto& left = nodes[static_cast<std::size_t>(node.left)];
    const auto& right = nodes[static_cast<std::size_t>(node.right)];
    const double decrease = node.impurity - left.impurity - right.impurity;
    AKS_CHECK(static_cast<std::size_t>(node.feature) < num_features,
              "split feature out of range");
    importances[static_cast<std::size_t>(node.feature)] +=
        std::max(0.0, decrease);
  }
  double total = 0.0;
  for (const double v : importances) total += v;
  if (total > 0.0) {
    for (auto& v : importances) v /= total;
  }
  return importances;
}

DecisionTreeRegressor::DecisionTreeRegressor(TreeOptions options)
    : options_(options) {
  validate_options(options_);
}

void DecisionTreeRegressor::fit(const common::Matrix& x,
                                const common::Matrix& y) {
  AKS_CHECK(x.rows() == y.rows(), "X has " << x.rows() << " rows, y has "
            << y.rows());
  AKS_CHECK(x.rows() >= 1, "empty training set");
  num_features_ = x.cols();
  Grower grower(x, options_, /*classification=*/false, y.cols(), &y, nullptr);
  nodes_ = grower.grow();
}

std::size_t DecisionTreeRegressor::num_leaves() const {
  return count_leaves(nodes_);
}

const std::vector<double>& DecisionTreeRegressor::predict_row(
    std::span<const double> row) const {
  AKS_CHECK(fitted(), "tree used before fit");
  AKS_CHECK(row.size() == num_features_, "feature count changed");
  return descend(nodes_, row).value;
}

common::Matrix DecisionTreeRegressor::predict(const common::Matrix& x) const {
  AKS_CHECK(fitted(), "tree used before fit");
  common::Matrix out(x.rows(), nodes_.front().value.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto& value = predict_row(x.row(r));
    std::copy(value.begin(), value.end(), out.row(r).begin());
  }
  return out;
}

std::size_t DecisionTreeRegressor::leaf_index_row(
    std::span<const double> row) const {
  AKS_CHECK(fitted(), "tree used before fit");
  AKS_CHECK(row.size() == num_features_, "feature count changed");
  std::size_t cur = 0;
  while (!nodes_[cur].is_leaf()) {
    const auto f = static_cast<std::size_t>(nodes_[cur].feature);
    cur = static_cast<std::size_t>(row[f] <= nodes_[cur].threshold
                                       ? nodes_[cur].left
                                       : nodes_[cur].right);
  }
  return cur;
}

std::vector<std::vector<double>> DecisionTreeRegressor::leaf_values() const {
  AKS_CHECK(fitted(), "tree used before fit");
  std::vector<std::vector<double>> values;
  for (const auto& node : nodes_) {
    if (node.is_leaf()) values.push_back(node.value);
  }
  return values;
}

DecisionTreeClassifier::DecisionTreeClassifier(TreeOptions options)
    : options_(options) {
  validate_options(options_);
}

DecisionTreeClassifier DecisionTreeClassifier::from_nodes(
    std::vector<TreeNode> nodes, int num_classes, std::size_t num_features) {
  AKS_CHECK(!nodes.empty(), "from_nodes: empty node list");
  AKS_CHECK(num_classes >= 1, "from_nodes: need at least one class");
  AKS_CHECK(num_features >= 1, "from_nodes: need at least one feature");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    if (node.is_leaf()) {
      AKS_CHECK(node.value.size() == static_cast<std::size_t>(num_classes),
                "from_nodes: leaf value has " << node.value.size()
                << " entries, expected " << num_classes);
    } else {
      AKS_CHECK(node.feature >= 0 &&
                    static_cast<std::size_t>(node.feature) < num_features,
                "from_nodes: split feature out of range");
      // Children come after their parent, as the grower appends them, so
      // every descent reaches a leaf: a cycle cannot be expressed.
      const auto follows = [&](int child) {
        return child > 0 && static_cast<std::size_t>(child) > i &&
               static_cast<std::size_t>(child) < nodes.size();
      };
      AKS_CHECK(follows(node.left) && follows(node.right),
                "from_nodes: node " << i << " has children " << node.left
                << "/" << node.right << "; each must be in (" << i << ", "
                << nodes.size() << ")");
    }
  }
  DecisionTreeClassifier tree;
  tree.nodes_ = std::move(nodes);
  tree.num_classes_ = num_classes;
  tree.num_features_ = num_features;
  return tree;
}

void DecisionTreeClassifier::fit(const common::Matrix& x,
                                 const std::vector<int>& y, int num_classes) {
  AKS_CHECK(x.rows() == y.size(), "X has " << x.rows() << " rows, y has "
            << y.size());
  AKS_CHECK(!y.empty(), "empty training set");
  int max_label = 0;
  for (const int label : y) {
    AKS_CHECK(label >= 0, "negative class label " << label);
    max_label = std::max(max_label, label);
  }
  num_classes_ = num_classes > 0 ? num_classes : max_label + 1;
  AKS_CHECK(max_label < num_classes_, "label " << max_label
            << " exceeds num_classes " << num_classes_);
  num_features_ = x.cols();
  Grower grower(x, options_, /*classification=*/true,
                static_cast<std::size_t>(num_classes_), nullptr, &y);
  nodes_ = grower.grow();
}

std::size_t DecisionTreeClassifier::num_leaves() const {
  return count_leaves(nodes_);
}

int DecisionTreeClassifier::predict_row(std::span<const double> row) const {
  AKS_CHECK(fitted(), "tree used before fit");
  AKS_CHECK(row.size() == num_features_, "feature count changed");
  const auto& counts = descend(nodes_, row).value;
  return static_cast<int>(std::distance(
      counts.begin(), std::max_element(counts.begin(), counts.end())));
}

std::vector<int> DecisionTreeClassifier::predict(const common::Matrix& x) const {
  std::vector<int> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_row(x.row(r));
  return out;
}

std::vector<double> DecisionTreeClassifier::predict_proba_row(
    std::span<const double> row) const {
  AKS_CHECK(fitted(), "tree used before fit");
  auto counts = descend(nodes_, row).value;
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total > 0.0) {
    for (auto& c : counts) c /= total;
  }
  return counts;
}

}  // namespace aks::ml
