// The benchmark harness that builds the tuning dataset.
//
// Mirrors the paper's data collection: "For each of these sizes we ran a
// benchmark for each of the kernel configurations, recording the runtime of
// the kernel and number of flops attained over a number of iterations."
// Two backends are provided:
//
//  * model mode — each (shape, config) run is timed by the perfmodel
//    TimingModel (best-of-N with deterministic noise). This is the mode the
//    shipped dataset uses; see DESIGN.md for the hardware substitution.
//  * host mode — the configuration's kernel is actually executed on the
//    syclrt host runtime and wall-clock timed. Used for correctness-scale
//    problems and the kernel microbenchmarks, not the full sweep.
#pragma once

#include <cstdint>
#include <functional>

#include "dataset/extract.hpp"
#include "dataset/perf_dataset.hpp"
#include "perfmodel/cost_model.hpp"

namespace aks::data {

struct RunnerOptions {
  /// Timed iterations per (shape, config); the best is kept.
  int iterations = 5;
  /// Lognormal sigma of the simulated measurement noise.
  double noise_sigma = 0.03;
  /// Seed for the noise streams.
  std::uint64_t seed = 42;
  /// Progress callback, called after each completed shape row. Rows finish
  /// on pool worker threads, but invocations are serialized by the runner
  /// (an internal mutex), so the callback may write to a stream without its
  /// output interleaving. `done` is the completion count at call time and
  /// is strictly increasing across the serialized calls.
  std::function<void(std::size_t done, std::size_t total)> progress;

  // -- Robust measurement (active only under a fault plan; see src/faults).
  // Without an installed plan the runner takes the legacy best-of-N path,
  // bit-identical to previous releases.

  /// Reduction applied to the MAD-filtered samples of a cell.
  enum class Aggregate { kBestOf, kMedian, kTrimmedMean };
  Aggregate aggregate = Aggregate::kBestOf;
};

/// Extra measurement attempts per cell (and per row, for corrupt-row
/// recovery) when faults leave too few valid samples.
inline constexpr int kMaxRetries = 3;
/// MAD rejection threshold of a cell's samples (scaled MADs from the
/// median).
inline constexpr double kMadThreshold = 3.5;

/// Outcome of one robustly measured (shape, config) cell.
struct CellMeasurement {
  /// Aggregated execution time; always finite and positive.
  double seconds = 0.0;
  /// Measurement attempts consumed (1 = no retry needed).
  int attempts = 0;
  /// Injected faults survived while measuring.
  int launch_failures = 0;
  int hangs = 0;
  int nan_samples = 0;
  int outliers_rejected = 0;
  /// True when every attempt failed and the analytic noise-free model value
  /// was used instead (the measurement layer's last-ditch degradation).
  bool fell_back = false;
};

/// Robustly measures one (shape, config) cell against the timing model:
/// up to kMaxRetries retries around injected launch failures/hangs,
/// NaN-sample rejection, MAD-based outlier rejection, then the configured
/// reduction. Deterministic for a fixed fault plan: fault decisions are
/// keyed on (shape, config, attempt), never on thread identity. Exposed for
/// tests; run_model_benchmarks uses it per cell whenever a fault plan is
/// active.
[[nodiscard]] CellMeasurement measure_cell_robust(
    const perf::TimingModel& timing, const gemm::KernelConfig& config,
    const gemm::GemmShape& shape, const RunnerOptions& options = {});

/// Runs the full (shapes x 640 configs) sweep against the timing model for
/// `device` and returns the assembled dataset.
[[nodiscard]] PerfDataset run_model_benchmarks(
    const std::vector<LoweredGemm>& shapes, const perf::DeviceSpec& device,
    const RunnerOptions& options = {});

/// Convenience: extract the paper's shape set and sweep it on the paper's
/// device model (AMD R9 Nano).
[[nodiscard]] PerfDataset build_paper_dataset(
    const RunnerOptions& options = {},
    const ExtractionOptions& extraction = {});

/// Executes one (shape, config) run on the host runtime and returns
/// wall-clock seconds. Intended for small shapes.
[[nodiscard]] double time_host_run(const gemm::KernelConfig& config,
                                   const gemm::GemmShape& shape);

}  // namespace aks::data
