// Static config lint: validates kernel configurations against device specs.
//
// The pruning and selection pipelines assume every point of the 640-element
// configuration space is launchable on the target device; a config that
// exceeds a device execution limit would either fail to launch or silently
// fall back, poisoning the tuning dataset. This pass checks each
// (config, device) pair against three mechanical rules — no benchmark run
// required:
//
//   work_group_size  — wg_rows * wg_cols must not exceed the device's
//                      max_work_group_size launch limit;
//   local_memory     — the work-group's staged operand panels must fit the
//                      device's per-group local memory;
//   vector_width     — the vectorised K-step (acc_size) must tile into, or
//                      be covered by, the device's native load vector, or
//                      the staging loads cannot be emitted as full vectors.
//
// The report is machine-readable (CSV round-trip). Invalid (config, device)
// points never enter a pruned library: the symbolic certificate's capacity
// rules check the same limits, so `select::CertifiedPruner` drops them.
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

/// Bytes of work-group local memory the config's staged operand panels
/// need: an (wg_rows*row_tile) x acc_size A panel and an acc_size x
/// (wg_cols*col_tile) B panel of floats.
[[nodiscard]] std::size_t local_memory_footprint_bytes(
    const gemm::KernelConfig& config);

/// True when a `width`-wide staged access decomposes into whole native
/// vectors (width >= native) or fits inside one (width < native and
/// divides it). The single tail predicate shared by the vector_width lint
/// rule and the symbolic verifier's capacity-vector-width check, so the
/// two static layers can never disagree.
[[nodiscard]] constexpr bool vector_tail_ok(int width, int native) {
  if (native <= 0 || width <= 0) return true;
  return width % native == 0 || native % width == 0;
}

/// Lints one (config, device) pair; returns the violated rules (empty when
/// the pair is valid).
[[nodiscard]] std::vector<LintFinding> lint_config(
    const gemm::KernelConfig& config, std::size_t config_index,
    const perf::DeviceSpec& device);

/// Sweeps configs x devices. Pass `gemm::enumerate_configs()` to lint the
/// full registry space.
[[nodiscard]] LintReport lint_configs(
    std::span<const gemm::KernelConfig> configs,
    std::span<const perf::DeviceSpec> devices);

}  // namespace aks::check
