#include "check/config_lint.hpp"

#include <algorithm>

#include "check/symbolic/access_summary.hpp"
#include "check/symbolic/verifier.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "gemm/access_metadata.hpp"

namespace aks::check {

namespace {

/// The CSV layer supports no quoting, so cells must not contain commas.
std::string sanitize_cell(std::string text) {
  std::replace(text.begin(), text.end(), ',', ';');
  return text;
}

LintRule lint_rule_of(std::string_view capacity_rule) {
  if (capacity_rule == symbolic::kRuleCapacityWg) {
    return LintRule::work_group_size;
  }
  if (capacity_rule == symbolic::kRuleCapacityLocalMem) {
    return LintRule::local_memory;
  }
  if (capacity_rule == symbolic::kRuleCapacityVector) {
    return LintRule::vector_width;
  }
  AKS_FAIL("capacity rule '" << capacity_rule << "' has no lint rule");
}

}  // namespace

LintRule parse_lint_rule(std::string_view name) {
  for (const LintRule rule :
       {LintRule::work_group_size, LintRule::local_memory,
        LintRule::vector_width}) {
    if (to_string(rule) == name) return rule;
  }
  AKS_FAIL("unknown lint rule '" << name << "'");
}

Diagnostic LintFinding::to_diagnostic() const {
  return {.kind = DiagnosticKind::invalid_config,
          .kernel = config,
          .buffer = {},
          .index = config_index,
          .group_a = kNoGroup,
          .group_b = kNoGroup,
          .message = "[" + std::string(to_string(rule)) + "] " + message};
}

void LintReport::save_csv(const std::filesystem::path& path) const {
  common::CsvTable table;
  table.header = {"config_index", "config", "device", "rule", "message"};
  // Provenance row so a round-tripped report keeps its sweep dimensions
  // even when there are no findings.
  table.rows.push_back({std::to_string(configs_checked), "#summary",
                        std::to_string(devices_checked), "summary", ""});
  for (const auto& finding : findings) {
    table.rows.push_back({std::to_string(finding.config_index),
                          sanitize_cell(finding.config),
                          sanitize_cell(finding.device),
                          std::string(to_string(finding.rule)),
                          sanitize_cell(finding.message)});
  }
  common::write_csv(path, table);
}

LintReport LintReport::load_csv(const std::filesystem::path& path) {
  const common::CsvTable table = common::read_csv(path);
  const std::size_t idx_col = table.column_index("config_index");
  const std::size_t cfg_col = table.column_index("config");
  const std::size_t dev_col = table.column_index("device");
  const std::size_t rule_col = table.column_index("rule");
  const std::size_t msg_col = table.column_index("message");
  LintReport report;
  for (const auto& row : table.rows) {
    if (row[rule_col] == "summary") {
      report.configs_checked =
          common::parse_number<std::size_t>(row[idx_col],
                                            "lint report configs_checked");
      report.devices_checked =
          common::parse_number<std::size_t>(row[dev_col],
                                            "lint report devices_checked");
      continue;
    }
    LintFinding finding;
    finding.config_index =
        common::parse_number<std::size_t>(row[idx_col],
                                          "lint report config_index");
    finding.config = row[cfg_col];
    finding.device = row[dev_col];
    finding.rule = parse_lint_rule(row[rule_col]);
    finding.message = row[msg_col];
    report.findings.push_back(std::move(finding));
  }
  return report;
}

std::vector<LintFinding> lint_config(const gemm::KernelConfig& config,
                                     std::size_t config_index,
                                     const perf::DeviceSpec& device) {
  const auto capacity = symbolic::check_capacity(
      symbolic::summarize_tiled_gemm(gemm::tiled_access_pattern(config)),
      device);
  std::vector<LintFinding> findings;
  for (const auto& finding : capacity) {
    findings.push_back({.config_index = config_index,
                        .config = config.name(),
                        .device = device.name,
                        .rule = lint_rule_of(finding.rule),
                        .message = finding.message});
  }
  return findings;
}

LintReport lint_configs(std::span<const gemm::KernelConfig> configs,
                        std::span<const perf::DeviceSpec> devices) {
  LintReport report;
  report.configs_checked = configs.size();
  report.devices_checked = devices.size();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (const auto& device : devices) {
      auto findings = lint_config(configs[i], i, device);
      report.findings.insert(report.findings.end(),
                             std::make_move_iterator(findings.begin()),
                             std::make_move_iterator(findings.end()));
    }
  }
  return report;
}

}  // namespace aks::check
