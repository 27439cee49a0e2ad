// Symbolic access verifier: SAFE / UNSAFE / UNKNOWN verdicts per summary.
//
// `verify_access_summary` discharges, over *all* shapes admitted by the
// summary's preconditions, four obligation classes:
//
//   symbolic-oob         — every region stays inside its buffer's
//                          rows x cols extents (out_of_bounds);
//   symbolic-overlap-ww  — write regions are tile-sliced: each item writes
//                          only inside its own [origin, origin+pitch)
//                          footprint per schedule dimension, so distinct
//                          items can never write the same cell
//                          (write_write_race);
//   symbolic-overlap-rw  — when a written buffer is also read, the reads
//                          are sliced the same way (read_write_race);
//   symbolic-tail        — unguarded schedules must not access memory from
//                          padded out-of-range items (tail_unguarded).
//
// Each obligation is first attacked with the sound interval+congruence
// prover (domain.hpp). A failed proof is *not* a verdict: the verifier
// searches a structured family of small concrete shapes for a violating
// witness. Found witness -> UNSAFE with the concrete counterexample shape;
// no witness -> UNKNOWN, and the candidate shapes are exported so the
// caller can escalate to the dynamic checked replay (checked_gemm.hpp) —
// the SAFE/UNSAFE/UNKNOWN contract of DESIGN.md "Static verification".
//
// `check_capacity` separately validates a summary's resource facts against
// a DeviceSpec (work-group size, local memory, staged vector widths); these
// are concrete per-device checks, reported with the capacity-* rules. They
// are the repo's one set of device-limit rules: the config lint
// (config_lint.hpp) reports a projection of their findings.
#pragma once

#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "check/symbolic/access_summary.hpp"
#include "check/symbolic/domain.hpp"
#include "perfmodel/device_spec.hpp"

namespace aks::check::symbolic {

enum class Verdict { safe, unsafe, unknown };

[[nodiscard]] constexpr std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::safe: return "SAFE";
    case Verdict::unsafe: return "UNSAFE";
    case Verdict::unknown: return "UNKNOWN";
  }
  return "?";
}

/// Parses a verdict written by to_string(); throws common::Error.
[[nodiscard]] Verdict parse_verdict(std::string_view name);

/// A concrete GEMM shape (plus batch count) acting as a counterexample or
/// a replay-escalation candidate.
struct WitnessShape {
  std::int64_t m = 1;
  std::int64_t k = 1;
  std::int64_t n = 1;
  std::int64_t batch = 1;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool operator==(const WitnessShape&) const = default;
};

/// Machine-matchable rule identifiers of the symbolic diagnostic classes.
inline constexpr std::string_view kRuleOob = "symbolic-oob";
inline constexpr std::string_view kRuleOverlapWw = "symbolic-overlap-ww";
inline constexpr std::string_view kRuleOverlapRw = "symbolic-overlap-rw";
inline constexpr std::string_view kRuleTail = "symbolic-tail";
inline constexpr std::string_view kRuleCapacityWg = "capacity-work-group-size";
inline constexpr std::string_view kRuleCapacityLocalMem =
    "capacity-local-memory";
inline constexpr std::string_view kRuleCapacityVector =
    "capacity-vector-width";

struct SymbolicFinding {
  std::string rule;
  DiagnosticKind kind = DiagnosticKind::out_of_bounds;
  /// unsafe (witness holds a counterexample) or unknown (unproved, no
  /// witness found); SAFE summaries produce no findings.
  Verdict verdict = Verdict::unsafe;
  std::string buffer;
  std::string message;
  WitnessShape witness;

  /// View as the subsystem-wide diagnostic type.
  [[nodiscard]] Diagnostic to_diagnostic(const std::string& kernel) const;
};

struct VerifyResult {
  Verdict verdict = Verdict::safe;
  std::vector<SymbolicFinding> findings;
  /// For SAFE: the shape precondition the certificate quantifies over,
  /// e.g. "M >= 1 && K >= 1 && N >= 1".
  std::string precondition;
  /// For UNKNOWN: shapes the caller should escalate to checked replay.
  std::vector<WitnessShape> replay_candidates;
};

/// Verifies the access obligations of `summary` for all admitted shapes.
[[nodiscard]] VerifyResult verify_access_summary(const AccessSummary& summary);

/// True when a `width`-wide staged access decomposes into whole native
/// vectors (width >= native) or fits inside one (width < native and
/// divides it): the capacity-vector-width rule.
[[nodiscard]] constexpr bool vector_tail_ok(int width, int native) {
  if (native <= 0 || width <= 0) return true;
  return width % native == 0 || native % width == 0;
}

/// Checks the summary's resource facts against one device. Violations are
/// concrete, so every finding is UNSAFE with kind invalid_config, and each
/// message starts with "on <device name>: ".
[[nodiscard]] std::vector<SymbolicFinding> check_capacity(
    const AccessSummary& summary, const perf::DeviceSpec& device);

/// The shape domain the verifier quantifies over — exposed for tests.
[[nodiscard]] ShapeDomain domain_of(const AccessSummary& summary);

/// The structured candidate shapes the witness search enumerates for
/// `summary` — exposed so the differential mode and the property tests
/// replay exactly what the verifier sampled.
[[nodiscard]] std::vector<WitnessShape> witness_candidates(
    const AccessSummary& summary);

}  // namespace aks::check::symbolic
