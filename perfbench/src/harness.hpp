// Shared plumbing of the perfbench workloads: run options, the report that
// becomes the final JSON line, latency samples, quantiles, peak RSS and the
// span analysis of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Length of the measured phase; a traced run splits it between an
  /// untraced and a traced half.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's selector file and journals.
  std::filesystem::path run_dir;
  /// Where a traced run writes its Chrome JSON and span-summary CSV.
  std::filesystem::path trace_dir;
  /// The program's revision, recorded in the output.
  std::string revision;
  /// This executable, re-spawned to time process start.
  std::string self;
  unsigned nproc = 1;
};

/// Outcome of one run: ops attempted and failed, run-level checks, and the
/// named metrics printed as the final JSON line.
class Report {
 public:
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A check that is not tied to one op; a failure marks the run incorrect.
  void require(bool ok, const std::string& what);

  /// Emits every name of `spec` from `values`, 0 where the workload does
  /// no work in that layer; throws on a value whose name is not in `spec`.
  void metrics_from(const std::vector<std::pair<const char*, const char*>>& spec,
                    const std::map<std::string, double>& values);

  [[nodiscard]] bool correct() const { return failed_ == 0 && checks_ok_; }
  void print_table() const;
  void print_json() const;

 private:
  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Names and units of the end-to-end metrics (untraced runs) and the
/// per-layer metrics (traced runs); they mirror BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics();
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

/// Fixed-memory uniform sample (reservoir) of op latencies. The buffer is
/// touched up front so peak RSS does not depend on how many ops a run got
/// through.
class Samples {
 public:
  Samples(std::size_t capacity, std::uint64_t seed);
  void add(double value);
  void append_to(std::vector<double>& out) const;

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// SplitMix64 step: derives independent streams from the run seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// Fills `out` with uniform values in [-1, 1) from `seed`.
void fill_uniform(std::span<float> out, std::uint64_t seed);

/// Closed spans of a drained trace, grouped by name. A span whose begin
/// event carries the argument cold=1 is grouped under "<name>.cold".
struct SpanGroup {
  std::vector<double> ns;   ///< duration of each span
  double total_ns = 0.0;
  double self_ns = 0.0;     ///< total minus the time covered by child spans
};
[[nodiscard]] std::map<std::string, SpanGroup> group_spans(
    const std::vector<aks::trace::Event>& events);
/// The group called `name`, or an empty group when no such span closed.
[[nodiscard]] const SpanGroup& span_group(
    const std::map<std::string, SpanGroup>& groups, const std::string& name);

/// Ring size per thread that holds `events` trace events with headroom.
[[nodiscard]] std::size_t ring_bytes(std::size_t events);

/// Writes the session's Chrome JSON and span-summary CSV under
/// options.trace_dir and returns the file stem it used.
std::string export_trace(aks::trace::TraceSession& session,
                         const Options& options);

/// Prints the op-latency p99 with its sample counts. The tail is printed,
/// not reported as a metric: on a shared host it is not steady enough to
/// gate a change (see NOISE_LEDGER.md).
void print_tail(const std::vector<double>& op_ms, std::uint64_t ops);

/// Prints one line of a workload's input properties.
void property(const std::string& name, const std::string& value);
[[nodiscard]] std::string fixed(double value, int decimals);

}  // namespace perfbench
