// Safety certificates for the configuration space.
//
// `certify_space` sweeps configs x devices through the symbolic verifier:
// per configuration it verifies the tiled and batched access summaries
// (shape-symbolic, device-independent) and per device it adds the concrete
// capacity checks (check_capacity, the one device-limit rule set). Each
// (config, device) pair gets one `Certificate`:
//
//   SAFE     — carries the shape precondition the verdict quantifies over
//              ("for all M, K, N >= 1 ...");
//   UNSAFE   — carries the violated rule and a concrete counterexample
//              shape;
//   UNKNOWN  — unproved and unrefuted; the verifier's replay candidates
//              are escalated through the dynamic checked replay
//              (checked_gemm.hpp) and the outcome recorded.
//
// The report round-trips as CSV (same conventions as check::LintReport),
// exports SARIF-ish JSON via report_json.hpp, and collapses to a
// per-config safety mask that `select::CertifiedPruner` and the store's
// certificate gate consume. The mask fails closed: a config the report
// holds no certificate for is not SAFE.
//
// `differential_check` is the trust-but-verify mode: it cross-checks
// symbolic access verdicts against sampled dynamic replays — SAFE configs
// must replay clean over the shape corpus, UNSAFE access verdicts must
// fail replay on their counterexample shape, and any UNKNOWN is itself a
// mismatch.
#pragma once

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "check/symbolic/verifier.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks::check::symbolic {

struct CertifyOptions {
  /// Certify only the first N configurations (0 = all).
  std::size_t max_configs = 0;
};

struct Certificate {
  std::size_t config_index = 0;
  std::string config;  ///< KernelConfig::name()
  std::string device;  ///< DeviceSpec::name
  Verdict verdict = Verdict::safe;
  /// Violated rule id for UNSAFE/UNKNOWN (e.g. "symbolic-oob"); empty for
  /// SAFE.
  std::string rule;
  /// SAFE: the shape precondition the certificate quantifies over.
  std::string precondition;
  std::string message;
  /// UNSAFE: the concrete counterexample shape.
  WitnessShape witness;
  /// UNKNOWN escalation outcome: whether the replayed candidate shapes
  /// came back clean. True (vacuously) for SAFE/UNSAFE.
  bool replay_clean = true;
};

struct CertifyReport {
  std::size_t configs_checked = 0;
  std::size_t devices_checked = 0;
  std::vector<Certificate> certificates;  ///< one per (config, device)

  [[nodiscard]] std::size_t count(Verdict verdict) const;
  [[nodiscard]] bool all_safe() const {
    return count(Verdict::safe) == certificates.size();
  }

  /// Per-config safety over `num_configs` configs. A config is SAFE when
  /// the report holds at least one certificate for it on `device` (on any
  /// device when `device` is empty) and every such certificate is SAFE; a
  /// config with no certificate is not SAFE.
  [[nodiscard]] std::vector<bool> safe_mask(
      std::size_t num_configs, const std::string& device = {}) const;

  /// CSV round-trip (config_index,config,device,verdict,rule,precondition,
  /// witness,replay_clean,message).
  void save_csv(const std::filesystem::path& path) const;
  [[nodiscard]] static CertifyReport load_csv(
      const std::filesystem::path& path);
};

/// Sweeps `configs` x `devices`, verifying the flat and batched summaries
/// of each config and escalating UNKNOWN access verdicts' replay candidates
/// through checked replay. Pass `gemm::enumerate_configs()` and
/// `perf::DeviceSpec::shipped()` for the standard 640 x 3 space.
[[nodiscard]] CertifyReport certify_space(
    std::span<const gemm::KernelConfig> configs,
    std::span<const perf::DeviceSpec> devices, const CertifyOptions& = {});

struct DifferentialMismatch {
  std::size_t config_index = 0;
  std::string config;
  std::string device;
  std::string detail;
};

struct DifferentialResult {
  std::size_t configs_sampled = 0;
  std::size_t replays = 0;
  std::vector<DifferentialMismatch> mismatches;
  [[nodiscard]] bool clean() const { return mismatches.empty(); }
};

/// Cross-checks `report`'s access verdicts against dynamic replays of
/// `samples` evenly-spaced configurations (0 = every certified
/// configuration).
[[nodiscard]] DifferentialResult differential_check(
    const CertifyReport& report, std::span<const gemm::KernelConfig> configs,
    std::size_t samples = 0);

}  // namespace aks::check::symbolic
