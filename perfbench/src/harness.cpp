#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

void Report::require(bool ok, const std::string& what) {
  std::cout << (ok ? "check ok:     " : "check FAILED: ") << what << "\n";
  if (!ok) checks_ok_ = false;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::metrics_from(
    const std::vector<std::pair<const char*, const char*>>& spec,
    const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(spec.begin(), spec.end(), [&](const auto& s) {
      return name == s.first;
    });
    if (!known) throw std::logic_error("metric not in the spec: " + name);
  }
  for (const auto& [name, unit] : spec) {
    const auto it = values.find(name);
    metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void Report::print_table() const {
  std::cout << "ops attempted " << attempted_ << ", failed " << failed_
            << (correct() ? ", outputs correct\n" : ", OUTPUTS INCORRECT\n");
  for (const auto& [name, value] : metrics_) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(18) << json_number(value.first) << " "
              << value.second << "\n";
  }
}

void Report::print_json() const {
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << json_number(value.first) << ", \"unit\": \"" << value.second
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics() {
  static const std::vector<std::pair<const char*, const char*>> spec = {
      {"setup_s", "s"},     {"op_ms", "ms"},   {"ops_per_s", "1/s"},
      {"quality_pct", "%"}, {"rss_mb", "MB"},
  };
  return spec;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> spec = {
      {"serve.select_ns", "ns"},
      {"serve.select_batch_us", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.coalesced_waits", "count"},
      {"serve.duplicate_sweeps", "count"},
      {"serve.batch_dedup_ratio", "ratio"},
      {"serve.cached_shapes", "count"},
      {"serve.warmup_ms", "ms"},
      {"core.tuner_trials", "count"},
      {"core.tuner_self_us", "us"},
      {"core.plan_us", "us"},
      {"core.select_share_pct", "%"},
      {"core.load_selector_ms", "ms"},
      {"core.prune_ms.topn", "ms"},
      {"core.prune_ms.kmeans", "ms"},
      {"core.prune_ms.pca_kmeans", "ms"},
      {"core.prune_ms.hdbscan", "ms"},
      {"core.prune_ms.tree", "ms"},
      {"core.fit_ms.tree", "ms"},
      {"core.fit_ms.forest", "ms"},
      {"core.fit_ms.knn1", "ms"},
      {"core.fit_ms.knn3", "ms"},
      {"core.fit_ms.svm_linear", "ms"},
      {"core.fit_ms.svm_rbf", "ms"},
      {"core.eval_ms", "ms"},
      {"core.serialize_ms", "ms"},
      {"perfmodel.best_of_us", "us"},
      {"store.load_ms", "ms"},
      {"store.warm_start_ms", "ms"},
      {"store.flush_ms", "ms"},
      {"store.appended", "count"},
      {"store.journal_bytes", "bytes"},
      {"syclrt.kernel_ms", "ms"},
      {"syclrt.submissions", "count"},
      {"syclrt.groups", "count"},
      {"gemm.gflops", "GFLOP/s"},
      {"gemm.gflop", "GFLOP"},
      {"gemm.mbytes", "MB"},
      {"conv.lowering_ms", "ms"},
      {"conv.winograd_layers", "count"},
      {"dataset.build_ms", "ms"},
      {"ml.pca_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.dropped", "count"},
  };
  return spec;
}

Samples::Samples(std::size_t capacity, std::uint64_t seed)
    : values_(capacity, 0.0), rng_(seed | 1) {}

void Samples::add(double value) {
  ++seen_;
  if (size_ < values_.size()) {
    values_[size_++] = value;
    return;
  }
  // xorshift64: cheap enough for the serving hot loop.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % seen_;
  if (slot < values_.size()) values_[slot] = value;
}

void Samples::append_to(std::vector<double>& out) const {
  out.insert(out.end(), values_.begin(),
             values_.begin() + static_cast<std::ptrdiff_t>(size_));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fill_uniform(std::span<float> out, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (float& v : out) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    v = static_cast<float>(z >> 40) * 0x1p-23f - 1.0f;
  }
}

std::map<std::string, SpanGroup> group_spans(
    const std::vector<aks::trace::Event>& events) {
  struct Open {
    const aks::trace::Event* begin;
    double child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::map<std::string, SpanGroup> groups;
  for (const auto& event : events) {
    if (event.type == aks::trace::EventType::kBegin) {
      stacks[event.tid].push_back({&event, 0.0});
      continue;
    }
    if (event.type != aks::trace::EventType::kEnd) continue;
    auto& stack = stacks[event.tid];
    if (stack.empty()) continue;
    const Open open = stack.back();
    stack.pop_back();
    const double ns = static_cast<double>(event.ts_ns - open.begin->ts_ns);
    if (!stack.empty()) stack.back().child_ns += ns;
    std::string key = open.begin->name;
    for (std::size_t a = 0; a < open.begin->num_args; ++a) {
      const auto& arg = open.begin->args[a];
      if (std::string_view(arg.key) == "cold" && arg.value.u == 1) {
        key += ".cold";
      }
    }
    SpanGroup& group = groups[key];
    group.ns.push_back(ns);
    group.total_ns += ns;
    group.self_ns += ns - open.child_ns;
  }
  return groups;
}

const SpanGroup& span_group(const std::map<std::string, SpanGroup>& groups,
                            const std::string& name) {
  static const SpanGroup empty;
  const auto it = groups.find(name);
  return it == groups.end() ? empty : it->second;
}

std::size_t ring_bytes(std::size_t events) {
  return (events + events / 4 + 4096) * sizeof(aks::trace::Event);
}

std::string export_trace(aks::trace::TraceSession& session,
                         const Options& options) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  std::ofstream json(options.trace_dir / (stem + ".json"));
  session.write_chrome_json(json);
  std::ofstream csv(options.trace_dir / (stem + ".csv"));
  session.write_span_summary_csv(csv);
  if (!json || !csv) throw std::runtime_error("cannot write trace files");
  return (options.trace_dir / stem).string();
}

void print_tail(const std::vector<double>& op_ms, std::uint64_t ops) {
  const double p99 = quantile(op_ms, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(op_ms.begin(), op_ms.end(), [&](double v) { return v > p99; }));
  std::cout << "tail: op p99 " << p99 << " ms from " << op_ms.size()
            << " samples of " << ops << " ops, " << beyond
            << " samples beyond it (not a gated metric)\n";
}

void property(const std::string& name, const std::string& value) {
  std::cout << "input: " << std::left << std::setw(40) << name << std::right
            << " " << value << "\n";
}

std::string fixed(double value, int decimals) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(decimals) << value;
  return out.str();
}

}  // namespace perfbench
