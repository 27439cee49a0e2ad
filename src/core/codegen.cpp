#include "core/codegen.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::select {

namespace {

const char* kFeatureNames[3] = {"m", "k", "n"};
constexpr const char* kFunctionName = "select_gemm_kernel";
constexpr const char* kNamespaceName = "aks_generated";
/// Indentation width in spaces.
constexpr std::size_t kIndent = 2;

void emit_node(const std::vector<ml::TreeNode>& nodes,
               const std::vector<std::size_t>& allowed, std::size_t node,
               std::size_t depth, std::ostream& os) {
  const std::string pad((depth + 1) * kIndent, ' ');
  const auto& n = nodes[node];
  if (n.is_leaf()) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < n.value.size(); ++c) {
      if (n.value[c] > n.value[best]) best = c;
    }
    const auto& config = gemm::enumerate_configs()[allowed[best]];
    os << pad << "return {" << config.row_tile << ", " << config.col_tile
       << ", " << config.acc_size << ", " << config.wg_rows << ", "
       << config.wg_cols << "};  // " << config.name() << "\n";
    return;
  }
  AKS_CHECK(n.feature >= 0 && n.feature < 3,
            "tree split on unexpected feature " << n.feature);
  os << pad << "if (" << kFeatureNames[n.feature] << " <= "
     << common::format_fixed(n.threshold, 6) << ") {\n";
  emit_node(nodes, allowed, static_cast<std::size_t>(n.left), depth + 1, os);
  os << pad << "} else {\n";
  emit_node(nodes, allowed, static_cast<std::size_t>(n.right), depth + 1, os);
  os << pad << "}\n";
}

}  // namespace

std::string generate_selector_code(const DecisionTreeSelector& selector) {
  AKS_CHECK(!selector.allowed().empty(), "selector is not fitted");
  AKS_CHECK(!selector.scales_features() &&
                selector.feature_map() == FeatureMap::kRaw,
            "codegen requires a selector trained on raw, unscaled features");
  const auto& nodes = selector.tree().nodes();
  AKS_CHECK(!nodes.empty(), "selector tree is empty");

  std::ostringstream os;
  os << "// Generated by aks::select::generate_selector_code. Do not edit.\n";
  os << "// Selects among " << selector.allowed().size()
     << " shipped GEMM kernel configurations.\n\n";
  os << "namespace " << kNamespaceName << " {\n\n";
  os << "struct KernelChoice {\n"
     << "  int row_tile;\n"
     << "  int col_tile;\n"
     << "  int acc_size;\n"
     << "  int wg_rows;\n"
     << "  int wg_cols;\n"
     << "};\n\n";
  os << "inline KernelChoice " << kFunctionName
     << "(double m, double k, double n) {\n";
  os << "  (void)m; (void)k; (void)n;\n";
  emit_node(nodes, selector.allowed(), 0, 0, os);
  os << "}\n";
  os << "\n}  // namespace " << kNamespaceName << "\n";
  return os.str();
}

gemm::KernelConfig evaluate_generated_logic(const DecisionTreeSelector& selector,
                                            double m, double k, double n) {
  AKS_CHECK(!selector.allowed().empty(), "selector is not fitted");
  const auto& nodes = selector.tree().nodes();
  const double features[3] = {m, k, n};
  std::size_t cur = 0;
  while (!nodes[cur].is_leaf()) {
    const auto& node = nodes[cur];
    cur = static_cast<std::size_t>(
        features[static_cast<std::size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }
  std::size_t best = 0;
  const auto& value = nodes[cur].value;
  for (std::size_t c = 1; c < value.size(); ++c) {
    if (value[c] > value[best]) best = c;
  }
  return gemm::enumerate_configs()[selector.allowed()[best]];
}

}  // namespace aks::select
