// Checked execution pass: replays GEMM kernels over recording accessors.
//
// The checked launches read the same table of the 64 compiled kernels as the
// shipped ones (gemm::kTiledInstantiations), instantiated over
// `CheckedAccessor`s: the exact kernel bodies and launch geometry the
// shipping registry runs, compiled against shadow-recording memory. They are
// replayed deterministically (single-threaded, canonical group order) on
// synthetic operands. The pass reports:
//
//   * memory-safety findings (out-of-bounds, unguarded tail accesses,
//     cross-work-group races) via the AccessMonitor, and
//   * numerical divergence from the scalar reference GEMM, which would break
//     the paper's premise that all 640 configurations are interchangeable.
//
// This is what makes the "functionally interchangeable" claim mechanical:
// `check_registry` sweeps all configurations across a shape corpus chosen to
// exercise interior tiles, ragged edges in every dimension and K remainders,
// and the akscheck CLI gates CI on the result.
#pragma once

#include <cstddef>
#include <vector>

#include "check/checked_buffer.hpp"
#include "check/diagnostics.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::check {

/// Launches the checked instantiation matching `config` (same table entry
/// and launch geometry as gemm::launch_gemm). The queue should be in
/// deterministic replay mode; throws common::Error for a tile or
/// accumulator size outside {1,2,4,8}.
syclrt::Event launch_checked_gemm(syclrt::Queue& queue,
                                  const gemm::KernelConfig& config,
                                  CheckedAccessor<const float> a,
                                  CheckedAccessor<const float> b,
                                  CheckedAccessor<float> c,
                                  const gemm::GemmShape& shape);

/// Batched counterpart (one launch over `batch` packed multiplies).
syclrt::Event launch_checked_batched_gemm(syclrt::Queue& queue,
                                          const gemm::KernelConfig& config,
                                          CheckedAccessor<const float> a,
                                          CheckedAccessor<const float> b,
                                          CheckedAccessor<float> c,
                                          const gemm::GemmShape& shape,
                                          std::size_t batch);

/// Result of one checked launch (or an aggregate of many).
struct CheckResult {
  std::vector<Diagnostic> findings;
  /// Findings beyond the monitor cap (0 unless a kernel is pathological).
  std::size_t dropped_findings = 0;
  /// Largest |kernel - reference| over all output elements.
  double max_abs_error = 0.0;
  /// True when no findings and the numerics match the reference.
  [[nodiscard]] bool clean() const {
    return findings.empty() && dropped_findings == 0 && numerics_ok;
  }
  bool numerics_ok = true;
};

/// Replays one configuration on one shape with checked accessors and
/// verifies the output against reference_gemm. Operands are seeded
/// deterministically from (config, shape).
[[nodiscard]] CheckResult check_gemm(const gemm::KernelConfig& config,
                                     const gemm::GemmShape& shape);

/// Same for the batched kernel (`batch` packed multiplies, one launch).
[[nodiscard]] CheckResult check_batched_gemm(const gemm::KernelConfig& config,
                                             const gemm::GemmShape& shape,
                                             std::size_t batch);

/// Shapes exercising interior tiles, ragged M/N edges, K remainders for
/// every acc_size, and degenerate single-row/column cases.
[[nodiscard]] std::vector<gemm::GemmShape> default_shape_corpus();

struct RegistryCheckOptions {
  /// Shapes to sweep; empty means default_shape_corpus().
  std::vector<gemm::GemmShape> shapes;
  /// Check only the first N configurations (0 = all 640).
  std::size_t max_configs = 0;
};

struct RegistryCheckSummary {
  std::size_t configs_checked = 0;
  std::size_t launches = 0;
  std::size_t dropped_findings = 0;
  double max_abs_error = 0.0;
  std::vector<Diagnostic> findings;
  [[nodiscard]] bool clean() const {
    return findings.empty() && dropped_findings == 0;
  }
};

/// Sweeps the kernel zoo (registry configurations x shape corpus, plus one
/// batched launch per configuration) through the checked execution mode.
/// Numerical divergence beyond tolerance is folded into `findings` so one
/// flag gates everything.
[[nodiscard]] RegistryCheckSummary check_registry(
    const RegistryCheckOptions& options = {});

}  // namespace aks::check
