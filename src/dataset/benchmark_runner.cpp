#include "dataset/benchmark_runner.hpp"

#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "faults/injector.hpp"
#include "gemm/registry.hpp"
#include "syclrt/queue.hpp"

namespace aks::data {

namespace {

std::uint64_t cell_key(const gemm::GemmShape& shape, std::size_t config_index,
                       int attempt) {
  return faults::mix_key(shape.m, shape.k, shape.n,
                         static_cast<std::uint64_t>(config_index),
                         static_cast<std::uint64_t>(attempt));
}

double reduce_samples(std::vector<double>& samples,
                      const RunnerOptions& options, int* outliers_rejected) {
  const auto kept = common::reject_outliers_mad(samples, kMadThreshold);
  *outliers_rejected +=
      static_cast<int>(samples.size()) - static_cast<int>(kept.size());
  switch (options.aggregate) {
    case RunnerOptions::Aggregate::kMedian:
      return common::median(kept);
    case RunnerOptions::Aggregate::kTrimmedMean:
      return common::trimmed_mean(kept, 0.2);
    case RunnerOptions::Aggregate::kBestOf:
      break;
  }
  return common::min_value(kept);
}

CellMeasurement measure_cell(const perf::TimingModel& timing,
                             const gemm::KernelConfig& config,
                             std::size_t config_index,
                             const gemm::GemmShape& shape,
                             const RunnerOptions& options) {
  CellMeasurement result;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(options.iterations));
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    result.attempts = attempt + 1;
    faults::FaultScope scope(
        faults::site_bit(faults::Site::kKernelLaunch) |
            faults::site_bit(faults::Site::kHostTiming),
        cell_key(shape, config_index, attempt));
    samples.clear();
    for (int i = 0; i < options.iterations; ++i) {
      try {
        faults::maybe_inject_launch_fault();
      } catch (const faults::LaunchFailure&) {
        ++result.launch_failures;
        continue;
      } catch (const faults::DeadlineExceeded&) {
        ++result.hangs;
        continue;
      }
      double t = timing.time_run(
          config, shape,
          static_cast<std::uint64_t>(attempt * options.iterations + i));
      if (const auto fault = faults::probe(faults::Site::kHostTiming)) {
        if (fault.kind == faults::FaultKind::kTimingOutlier) {
          t *= fault.magnitude;
        } else if (fault.kind == faults::FaultKind::kTimingNan) {
          t = std::numeric_limits<double>::quiet_NaN();
        }
      }
      if (std::isfinite(t) && t > 0.0) {
        samples.push_back(t);
      } else {
        ++result.nan_samples;
      }
    }
    // One valid sample is enough to aggregate, but keep retrying while a
    // majority was lost — a mostly-faulted window is not trustworthy.
    if (static_cast<int>(samples.size()) * 2 > options.iterations) break;
  }
  if (samples.empty()) {
    // Degradation of last resort: every attempt failed, so fall back to
    // the analytic noise-free prior rather than poisoning the dataset with
    // a NaN or aborting a 100k-cell sweep for one dead cell.
    result.fell_back = true;
    result.seconds = timing.model().predict_seconds(config, shape);
    return result;
  }
  result.seconds = reduce_samples(samples, options, &result.outliers_rejected);
  return result;
}

/// Applies an injected corrupt-row fault: deterministically NaNs a spread
/// of cells, emulating a damaged CSV record / DMA'd row.
void corrupt_row(common::Matrix& times, std::size_t row, std::uint64_t key) {
  const std::size_t cols = times.cols();
  const std::size_t stride = 1 + faults::mix_key(key, 0x5eed) % 17;
  for (std::size_t c = faults::mix_key(key, 0xc0de) % stride; c < cols;
       c += stride) {
    times(row, c) = std::numeric_limits<double>::quiet_NaN();
  }
}

bool row_valid(const common::Matrix& times, std::size_t row) {
  for (std::size_t c = 0; c < times.cols(); ++c) {
    const double t = times(row, c);
    if (!std::isfinite(t) || t <= 0.0) return false;
  }
  return true;
}

}  // namespace

CellMeasurement measure_cell_robust(const perf::TimingModel& timing,
                                    const gemm::KernelConfig& config,
                                    const gemm::GemmShape& shape,
                                    const RunnerOptions& options) {
  AKS_CHECK(options.iterations > 0, "need at least one iteration");
  return measure_cell(timing, config, gemm::config_index(config), shape,
                      options);
}

PerfDataset run_model_benchmarks(const std::vector<LoweredGemm>& shapes,
                                 const perf::DeviceSpec& device,
                                 const RunnerOptions& options) {
  AKS_CHECK(!shapes.empty(), "no shapes to benchmark");
  AKS_CHECK(options.iterations > 0, "need at least one iteration");
  const auto& configs = gemm::enumerate_configs();
  const perf::TimingModel timing(device, options.noise_sigma, options.seed);

  // The robust path engages only under an installed fault plan; without one
  // the legacy best-of-N measurement below is bit-identical to previous
  // releases (golden datasets and determinism tests depend on that).
  const bool robust = faults::plan_active();

  common::Matrix times(shapes.size(), configs.size());
  std::atomic<std::size_t> done{0};
  // Workers finish rows concurrently; the progress callback is serialized
  // under a mutex so user code (typically stream output) never interleaves.
  aks::Mutex progress_mutex{"dataset.progress"};
  common::ThreadPool::global().parallel_for(
      shapes.size(), [&](std::size_t r) {
        const gemm::GemmShape& shape = shapes[r].shape;
        const auto measure = [&](std::size_t c) {
          return robust ? measure_cell(timing, configs[c], c, shape, options)
                              .seconds
                        : timing.best_of(configs[c], shape,
                                         options.iterations);
        };
        for (std::size_t c = 0; c < configs.size(); ++c) {
          times(r, c) = measure(c);
        }
        if (robust) {
          // Corrupt-row faults damage the assembled record *after*
          // measurement (a truncated CSV write, a bit-flipped buffer).
          // Recovery: re-measure the damaged cells, re-probe; after
          // kMaxRetries, repair survivors from the analytic prior so a
          // non-finite row never ships.
          const std::uint64_t row_key =
              faults::mix_key(shape.m, shape.k, shape.n, 0xdadaULL);
          for (int row_attempt = 0;; ++row_attempt) {
            {
              faults::FaultScope scope(
                  faults::site_bit(faults::Site::kDatasetRow),
                  faults::mix_key(row_key,
                                  static_cast<std::uint64_t>(row_attempt)));
              if (const auto fault = faults::probe(faults::Site::kDatasetRow);
                  fault.kind == faults::FaultKind::kCorruptRow) {
                corrupt_row(times, r, scope.key());
              }
            }
            if (row_valid(times, r)) break;
            const bool out_of_retries = row_attempt >= kMaxRetries;
            for (std::size_t c = 0; c < configs.size(); ++c) {
              const double t = times(r, c);
              if (std::isfinite(t) && t > 0.0) continue;
              times(r, c) =
                  out_of_retries
                      ? timing.model().predict_seconds(configs[c], shape)
                      : measure(c);
            }
            if (out_of_retries) break;
          }
        }
        if (options.progress) {
          aks::MutexLock lock(progress_mutex);
          const std::size_t d =
              done.fetch_add(1, std::memory_order_relaxed) + 1;
          options.progress(d, shapes.size());
        } else {
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
  return PerfDataset(shapes, std::move(times));
}

PerfDataset build_paper_dataset(const RunnerOptions& options,
                                const ExtractionOptions& extraction) {
  return run_model_benchmarks(extract_all_shapes(extraction),
                              perf::DeviceSpec::amd_r9_nano(), options);
}

double time_host_run(const gemm::KernelConfig& config,
                     const gemm::GemmShape& shape) {
  // Deterministic input data; contents do not affect timing meaningfully
  // but keep the kernels honest (no denormal or NaN shortcuts).
  common::Rng rng(7);
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  std::vector<float> c(shape.m * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  syclrt::Queue queue;
  const auto event = gemm::launch_gemm(queue, config, a, b, c, shape);
  return event.elapsed_seconds;
}

}  // namespace aks::data
