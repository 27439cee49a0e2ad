#include "check/config_lint.hpp"

#include <algorithm>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::check {

namespace {

/// The CSV layer supports no quoting, so cells must not contain commas.
std::string sanitize_cell(std::string text) {
  std::replace(text.begin(), text.end(), ',', ';');
  return text;
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
          .message = "[" + std::string(to_string(rule)) + "] on " + device +
                     ": " + message};
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

std::size_t local_memory_footprint_bytes(const gemm::KernelConfig& config) {
  const auto rows = static_cast<std::size_t>(config.wg_rows) *
                    static_cast<std::size_t>(config.row_tile);
  const auto cols = static_cast<std::size_t>(config.wg_cols) *
                    static_cast<std::size_t>(config.col_tile);
  const auto acc = static_cast<std::size_t>(config.acc_size);
  return sizeof(float) * (rows * acc + acc * cols);
}

std::vector<LintFinding> lint_config(const gemm::KernelConfig& config,
                                     std::size_t config_index,
                                     const perf::DeviceSpec& device) {
  std::vector<LintFinding> findings;
  const auto add = [&](LintRule rule, const std::string& message) {
    findings.push_back({.config_index = config_index,
                        .config = config.name(),
                        .device = device.name,
                        .rule = rule,
                        .message = message});
  };

  const int wg_size = config.work_group_size();
  if (wg_size > device.max_work_group_size) {
    std::ostringstream os;
    os << "work-group size " << wg_size << " exceeds device limit "
       << device.max_work_group_size;
    add(LintRule::work_group_size, os.str());
  }

  const std::size_t footprint = local_memory_footprint_bytes(config);
  if (footprint > device.local_memory_bytes) {
    std::ostringstream os;
    os << "staged panels need " << footprint
       << " bytes of local memory; device has " << device.local_memory_bytes;
    add(LintRule::local_memory, os.str());
  }

  // The staging loads along K are emitted as acc_size-wide vectors and the
  // B staging / C store address col_tile contiguous columns; each width
  // must decompose into whole native vectors or fit inside one, or the
  // accesses cannot be emitted as full vectors — scalar fix-up code the
  // kernel family does not have. Both widths go through the same tail
  // predicate the symbolic verifier's capacity check uses (previously only
  // acc_size was linted, so a config whose store width broke the vector
  // tail passed the lint but failed the replay layer).
  const int vec = device.vector_width;
  if (!vector_tail_ok(config.acc_size, vec)) {
    std::ostringstream os;
    os << "accumulator step " << config.acc_size
       << " does not tile into native vector width " << vec;
    add(LintRule::vector_width, os.str());
  }
  if (!vector_tail_ok(config.col_tile, vec)) {
    std::ostringstream os;
    os << "column-tile store width " << config.col_tile
       << " does not tile into native vector width " << vec;
    add(LintRule::vector_width, os.str());
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
