#include "core/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::select {

namespace {

constexpr const char* kMagic = "aks-tree-selector v1";

/// Exact round-trip encoding for doubles.
std::string hex_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

}  // namespace

void save_selector(const DecisionTreeSelector& selector,
                   const std::filesystem::path& path) {
  AKS_CHECK(!selector.allowed().empty(), "selector is not fitted");
  AKS_CHECK(!selector.scales_features() &&
                selector.feature_map() == FeatureMap::kRaw,
            "only raw-feature selectors are serialisable");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  AKS_CHECK(out.is_open(), "cannot write selector file " << path);

  out << kMagic << "\n";
  out << "features 3\n";
  out << "allowed " << selector.allowed().size();
  for (const std::size_t c : selector.allowed()) out << " " << c;
  out << "\n";
  const auto& nodes = selector.tree().nodes();
  out << "nodes " << nodes.size() << "\n";
  for (const auto& node : nodes) {
    out << node.feature << " " << hex_double(node.threshold) << " "
        << node.left << " " << node.right << " " << node.n_samples;
    out << " " << node.value.size();
    for (const double v : node.value) out << " " << hex_double(v);
    out << "\n";
  }
  AKS_CHECK(out.good(), "I/O error writing selector file " << path);
}

DecisionTreeSelector load_selector(const std::filesystem::path& path) {
  std::ifstream in(path);
  AKS_CHECK(in.is_open(), "cannot open selector file " << path);
  // Declared counts are checked against the file size before anything is
  // allocated for them: every listed number takes at least two bytes (a
  // digit and a separator).
  std::error_code size_error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  AKS_CHECK(!size_error, "cannot size selector file " << path);

  std::string line;
  AKS_CHECK(std::getline(in, line) && line == kMagic,
            "not a selector file (bad magic): " << path);

  std::string keyword;
  std::size_t feature_count = 0;
  in >> keyword >> feature_count;
  AKS_CHECK(in.good() && keyword == "features" && feature_count == 3,
            "malformed features line in " << path);

  std::size_t allowed_count = 0;
  in >> keyword >> allowed_count;
  AKS_CHECK(in.good() && keyword == "allowed" && allowed_count > 0,
            "malformed allowed line in " << path);
  AKS_CHECK(allowed_count <= file_bytes / 2,
            "allowed count " << allowed_count << " exceeds what " << path
            << " can hold");
  std::vector<std::size_t> allowed(allowed_count);
  for (auto& c : allowed) {
    in >> c;
    AKS_CHECK(in.good(), "truncated allowed list in " << path);
  }

  std::size_t node_count = 0;
  in >> keyword >> node_count;
  AKS_CHECK(in.good() && keyword == "nodes" && node_count > 0,
            "malformed nodes line in " << path);
  // A node line holds six fields and one value per allowed config.
  AKS_CHECK(node_count <= file_bytes / (2 * (6 + allowed_count)),
            "node count " << node_count << " exceeds what " << path
            << " can hold");

  std::vector<ml::TreeNode> nodes(node_count);
  for (auto& node : nodes) {
    std::string threshold_text;
    std::size_t value_count = 0;
    in >> node.feature >> threshold_text >> node.left >> node.right >>
        node.n_samples >> value_count;
    AKS_CHECK(in.good(), "truncated node in " << path);
    AKS_CHECK(value_count == allowed_count,
              "node has " << value_count << " values, expected "
              << allowed_count << " in " << path);
    node.threshold =
        common::parse_number<double>(threshold_text, "selector threshold");
    node.value.resize(value_count);
    for (auto& v : node.value) {
      std::string value_text;
      in >> value_text;
      AKS_CHECK(!in.fail(), "truncated node values in " << path);
      v = common::parse_number<double>(value_text, "selector node value");
    }
  }

  auto tree = ml::DecisionTreeClassifier::from_nodes(
      std::move(nodes), static_cast<int>(allowed_count), feature_count);
  return DecisionTreeSelector(std::move(tree), std::move(allowed));
}

}  // namespace aks::select
