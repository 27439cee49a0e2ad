// Static config lint: validates kernel configurations against device specs.
//
// The pruning and selection pipelines assume every point of the 640-element
// configuration space is launchable on the target device; a config that
// exceeds a device execution limit would either fail to launch or silently
// fall back, poisoning the tuning dataset. The lint reports, per
// (config, device) pair and with no benchmark run, which limits the config
// breaks. It owns no rules: each finding is a projection of
// `symbolic::check_capacity` on the config's tiled access summary
// (`gemm::tiled_access_pattern`), renamed to the lint's rule ids:
//
//   work_group_size  — capacity-work-group-size: wg_rows * wg_cols must
//                      not exceed the device's max_work_group_size;
//   local_memory     — capacity-local-memory: the work-group's staged
//                      operand panels must fit the device's per-group
//                      local memory;
//   vector_width     — capacity-vector-width: every staged access width
//                      (acc_size along K, col_tile along N) must tile
//                      into, or be covered by, the native load vector.
//
// The report is machine-readable (CSV round-trip, JSON via
// report_json.hpp). Invalid (config, device) points never enter a pruned
// library, because the same capacity rules keep their certificate from
// being SAFE and `select::CertifiedPruner` drops them.
#pragma once

#include <filesystem>
#include <span>
#include <vector>

#include "check/diagnostics.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks::check {

/// Machine-matchable lint rule identifiers.
enum class LintRule {
  work_group_size,
  local_memory,
  vector_width,
};

[[nodiscard]] constexpr std::string_view to_string(LintRule rule) {
  switch (rule) {
    case LintRule::work_group_size: return "work_group_size";
    case LintRule::local_memory: return "local_memory";
    case LintRule::vector_width: return "vector_width";
  }
  return "unknown";
}

/// Parses a rule name written by to_string(); throws common::Error.
[[nodiscard]] LintRule parse_lint_rule(std::string_view name);

struct LintFinding {
  /// Position of the config in the linted sequence (canonical index when
  /// linting the full registry).
  std::size_t config_index = 0;
  std::string config;  ///< KernelConfig::name()
  std::string device;  ///< DeviceSpec::name
  LintRule rule = LintRule::work_group_size;
  /// The capacity rule's message, which starts with "on <device>: ".
  std::string message;

  /// View as the subsystem-wide diagnostic type (kind invalid_config).
  [[nodiscard]] Diagnostic to_diagnostic() const;
};

struct LintReport {
  std::size_t configs_checked = 0;
  std::size_t devices_checked = 0;
  std::vector<LintFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }

  /// CSV round-trip (config_index,config,device,rule,message).
  void save_csv(const std::filesystem::path& path) const;
  [[nodiscard]] static LintReport load_csv(const std::filesystem::path& path);
};

/// Lints one (config, device) pair: the capacity findings of the config's
/// tiled access summary on `device` (empty when the pair is valid).
[[nodiscard]] std::vector<LintFinding> lint_config(
    const gemm::KernelConfig& config, std::size_t config_index,
    const perf::DeviceSpec& device);

/// Sweeps configs x devices. Pass `gemm::enumerate_configs()` to lint the
/// full registry space.
[[nodiscard]] LintReport lint_configs(
    std::span<const gemm::KernelConfig> configs,
    std::span<const perf::DeviceSpec> devices);

}  // namespace aks::check
