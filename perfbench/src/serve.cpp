// serve_hot and serve_churn: nproc closed-loop clients on one
// SelectionService that wraps an OnlineTuner over the tree-pruned configs
// and is warm-started from a seed journal.
//
// serve_hot: every request is a select() of a pool shape the journal holds,
// drawn with Zipf-skewed popularity, so only the hit path runs.
// serve_churn: every request is a graph build (select_batch over one
// network's GEMM shapes at one batch size); one request in kBlock brings a
// batch size never seen before, whose wave sweeps on the TimingModel and
// enqueues a put_batch, and client 0 flushes the store every kFlushEvery of
// its requests. The stream is replayed in passes, each from a fresh copy of
// the seed journal, so every count is the same on every pass.
//
// perfbench/README.md gives the source of each traffic parameter below, or
// marks it as an unverified assumption.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "core/online.hpp"
#include "core/pruning.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/extract.hpp"
#include "dataset/lowering.hpp"
#include "dataset/networks.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aks::gemm::GemmShape;
using aks::gemm::KernelConfig;
using TimerFn = aks::select::OnlineTuner::TimerFn;

/// The TimingModel's noise and seed and the best-of-N per tuner trial, as
/// the shipped serving command (`aks_tune serve`) builds its tuner.
constexpr double kTimingNoise = 0.03;
constexpr std::uint64_t kTimingSeed = 42;
constexpr int kTrialIterations = 5;
constexpr std::size_t kQualityShapes = 512;
constexpr std::size_t kSamplesPerClient = 1 << 17;

// serve_hot
constexpr double kZipfExponent = 1.0;               // unverified assumption
constexpr std::size_t kHotStreamLength = 1 << 16;  // requests per client
constexpr std::size_t kHotTimeEvery = 8;            // time one op in eight
constexpr std::uint64_t kPopularitySeed = 1;
constexpr int kHotSetups = 101;
constexpr std::uint64_t kHotTracedOps = 4096;       // per client
/// ops_per_s is the median rate over windows of this length.
constexpr double kWindowSeconds = 0.5;

// serve_churn
constexpr std::size_t kChurnOps = 1000;  // requests per client per pass
/// One cold request per block of kBlock: a 5% cold share (unverified
/// assumption).
constexpr std::size_t kBlock = 20;
/// Largest batch size a cold request may introduce (unverified assumption).
constexpr std::size_t kMaxNewBatch = 1024;
/// Client 0 flushes once per block, so each flush persists about one new
/// graph per client (unverified assumption).
constexpr std::size_t kFlushEvery = kBlock;

/// Batch sizes of the seed journal for `network`: those of the paper's
/// shape corpus, which `aks_tune serve` replays.
const std::vector<int>& pool_batches(const aks::data::Network& network) {
  static const aks::data::ExtractionOptions corpus;
  return corpus.batches_for(network.name);
}

/// The service stack a serving user builds before the first request: open
/// the journal, build the tuner and the service, warm-start.
class ServeStack {
 public:
  ServeStack(const std::filesystem::path& journal,
             const std::vector<std::size_t>& candidates, const TimerFn& timer,
             const aks::perf::DeviceSpec& device) {
    {
      aks::trace::Span span("store.load_ms");
      store_ = std::make_unique<aks::store::SelectionStore>(journal);
    }
    tuner_ = std::make_unique<aks::select::OnlineTuner>(candidates, timer);
    service_ = std::make_unique<aks::serve::SelectionService>(*tuner_);
    aks::trace::Span span("store.warm_start_ms");
    service_->warm_start(*store_, device);
  }

  aks::store::SelectionStore& store() { return *store_; }
  aks::serve::SelectionService& service() { return *service_; }

 private:
  // Declared in dependency order, so the service goes first.
  std::unique_ptr<aks::store::SelectionStore> store_;
  std::unique_ptr<aks::select::OnlineTuner> tuner_;
  std::unique_ptr<aks::serve::SelectionService> service_;
};

/// Benchmark-only preparation shared by both workloads.
struct ServeInputs {
  std::vector<aks::data::Network> networks;
  std::vector<std::size_t> candidates;
  /// Every distinct GEMM shape of the networks at their pool_batches.
  std::vector<GemmShape> pool;
  /// The seed journal's decision for every pool shape.
  std::unordered_map<GemmShape, KernelConfig> answers;
  std::filesystem::path journal;
};

std::vector<GemmShape> graph_shapes(const aks::data::Network& network,
                                    int batch) {
  std::vector<GemmShape> shapes;
  for (const auto& lowered : aks::data::lower_network(network, {batch})) {
    shapes.push_back(lowered.shape);
  }
  return shapes;
}

/// Picks the tree-pruned candidates and tunes every pool shape into a fresh
/// seed journal through the program's own service.
ServeInputs prepare(const Options& options, const TimerFn& timer,
                    const aks::perf::DeviceSpec& device) {
  ServeInputs in;
  in.networks = aks::data::paper_networks();
  const auto dataset = aks::data::build_paper_dataset();
  const auto split = dataset.split(0.8, 1);
  in.candidates = aks::select::DecisionTreePruner().prune(split.train, 8);

  std::set<GemmShape> distinct;
  for (const auto& network : in.networks) {
    for (const int batch : pool_batches(network)) {
      for (const auto& shape : graph_shapes(network, batch)) {
        distinct.insert(shape);
      }
    }
  }
  in.pool.assign(distinct.begin(), distinct.end());

  in.journal = options.run_dir / "seed.journal";
  std::filesystem::remove(in.journal);
  aks::store::SelectionStore store(in.journal);
  aks::select::OnlineTuner tuner(in.candidates, timer);
  aks::serve::SelectionService service(tuner);
  service.warm_start(store, device);
  const auto configs = service.select_batch(in.pool);
  for (std::size_t i = 0; i < in.pool.size(); ++i) {
    in.answers.emplace(in.pool[i], configs[i]);
  }
  store.flush();
  return in;
}

/// 100 x geomean over `shapes` of the modelled optimum over all 640 configs
/// divided by the modelled time of the config served.
double quality_pct(const std::vector<GemmShape>& shapes,
                   const std::unordered_map<GemmShape, KernelConfig>& served) {
  const aks::perf::CostModel model(aks::perf::DeviceSpec::amd_r9_nano());
  double log_sum = 0.0;
  for (const auto& shape : shapes) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& config : aks::gemm::enumerate_configs()) {
      best = std::min(best, model.predict_seconds(config, shape));
    }
    log_sum += std::log(best / model.predict_seconds(served.at(shape), shape));
  }
  return 100.0 * std::exp(log_sum / static_cast<double>(shapes.size()));
}

/// Up to kQualityShapes of `distinct`, drawn by the seed.
std::vector<GemmShape> quality_set(const std::set<GemmShape>& distinct,
                                   std::uint64_t seed) {
  std::vector<GemmShape> shapes(distinct.begin(), distinct.end());
  aks::common::Rng rng(mix(seed, 7));
  rng.shuffle(shapes);
  if (shapes.size() > kQualityShapes) shapes.resize(kQualityShapes);
  return shapes;
}

/// Starts `clients` threads together, runs body(client, stop) on each, stops
/// them after `seconds` (0: when their bodies return), joins them and
/// returns the wall time from release to join. A timed run calls tick() at
/// the release and at the end of every kWindowSeconds window.
template <typename Body, typename Tick>
double run_clients(unsigned clients, double seconds, Body body, Tick tick) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Attaches this thread's trace ring before any op is timed.
      aks::trace::instant("client.start");
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(c, stop);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  if (seconds > 0.0) {
    tick();
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kWindowSeconds));
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (auto next = start + window; next <= end; next += window) {
      std::this_thread::sleep_until(next);
      tick();
    }
    std::this_thread::sleep_until(end);
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& thread : threads) thread.join();
  const double wall = seconds_since(start);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return wall;
}

double hit_ratio(const aks::serve::ServiceStats& stats) {
  const double lookups = static_cast<double>(stats.hits + stats.misses +
                                             stats.coalesced_waits);
  return lookups > 0.0 ? static_cast<double>(stats.hits) / lookups : 0.0;
}

// ------------------------------------------------------------ serve_hot

struct HotRequest {
  GemmShape shape;
  KernelConfig expect;
};

/// Popularity is a fixed ranking of the pool, so the hot shapes (and the
/// shards they share) are the same for every seed; the seed draws each
/// client's request sequence.
std::vector<std::vector<HotRequest>> zipf_streams(const ServeInputs& in,
                                                  unsigned clients,
                                                  std::uint64_t seed) {
  aks::common::Rng rng(kPopularitySeed);
  const auto by_rank = rng.permutation(in.pool.size());
  std::vector<double> cdf(in.pool.size());
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  std::vector<std::vector<HotRequest>> streams(clients);
  for (unsigned c = 0; c < clients; ++c) {
    aks::common::Rng client_rng(mix(seed, 100 + c));
    streams[c].reserve(kHotStreamLength);
    for (std::size_t i = 0; i < kHotStreamLength; ++i) {
      const double u = client_rng.uniform() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const GemmShape& shape = in.pool[by_rank[std::min(rank, cdf.size() - 1)]];
      streams[c].push_back({shape, in.answers.at(shape)});
    }
  }
  return streams;
}

struct HotPhase {
  std::vector<double> latency_ns;
  std::uint64_t ops = 0;
  std::uint64_t wrong = 0;
  /// Ops per second summed over clients, per kWindowSeconds window.
  std::vector<double> window_rates;
};

/// A client's completed requests, on its own cache line.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> ops{0};
};

/// Closed loop: each client replays its stream for `seconds`, or for
/// `max_ops` requests when seconds is 0.
HotPhase serve_hot_phase(aks::serve::SelectionService& service,
                         const std::vector<std::vector<HotRequest>>& streams,
                         double seconds, std::uint64_t max_ops,
                         std::uint64_t seed) {
  const auto clients = static_cast<unsigned>(streams.size());
  std::vector<Samples> samples;
  for (unsigned c = 0; c < clients; ++c) {
    samples.emplace_back(kSamplesPerClient, mix(seed, 200 + c));
  }
  std::vector<std::uint64_t> ops(clients, 0);
  std::vector<std::uint64_t> wrong(clients, 0);
  std::vector<Progress> progress(clients);
  std::vector<std::pair<Clock::time_point, std::uint64_t>> marks;
  marks.reserve(static_cast<std::size_t>(seconds / kWindowSeconds) + 2);
  const auto tick = [&] {
    std::uint64_t total = 0;
    for (const Progress& p : progress) total += p.ops.load(std::memory_order_relaxed);
    marks.emplace_back(Clock::now(), total);
  };
  HotPhase phase;
  run_clients(clients, seconds, [&](unsigned c, const std::atomic<bool>& stop) {
    const auto& stream = streams[c];
    Samples& latency = samples[c];
    std::uint64_t done = 0;
    std::uint64_t bad = 0;
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed) &&
           (max_ops == 0 || done < max_ops)) {
      for (int k = 0; k < 64; ++k, ++i) {
        const HotRequest& request = stream[i % kHotStreamLength];
        KernelConfig config;
        if (i % kHotTimeEvery == 0) {
          const auto start = Clock::now();
          {
            aks::trace::Span span("serve.select_ns");
            config = service.select(request.shape);
          }
          latency.add(std::chrono::duration<double, std::nano>(Clock::now() -
                                                               start)
                          .count());
        } else {
          aks::trace::Span span("serve.select_ns");
          config = service.select(request.shape);
        }
        bad += config == request.expect ? 0U : 1U;
      }
      done += 64;
      progress[c].ops.store(done, std::memory_order_relaxed);
    }
    ops[c] = done;
    wrong[c] = bad;
  }, tick);
  for (std::size_t w = 1; w < marks.size(); ++w) {
    const double dt = std::chrono::duration<double>(marks[w].first -
                                                    marks[w - 1].first).count();
    phase.window_rates.push_back(
        static_cast<double>(marks[w].second - marks[w - 1].second) / dt);
  }
  for (unsigned c = 0; c < clients; ++c) {
    samples[c].append_to(phase.latency_ns);
    phase.ops += ops[c];
    phase.wrong += wrong[c];
  }
  return phase;
}

// ---------------------------------------------------------- serve_churn

/// One graph build: a network's GEMM shapes at one batch size.
struct Graph {
  std::vector<GemmShape> shapes;
  /// First answer seen for the graph (known up front for pool graphs).
  std::vector<KernelConfig> expect;
};

struct ChurnRequest {
  std::uint32_t graph = 0;
  bool cold = false;
};

struct ChurnInputs {
  /// Pool graphs first (shared by every client), then each client's own
  /// new graphs; a new graph is only ever requested by its owner.
  std::vector<Graph> graphs;
  std::vector<std::vector<ChurnRequest>> streams;
  std::size_t new_graphs = 0;
  std::size_t new_shapes = 0;
  std::set<GemmShape> requested;
};

ChurnInputs churn_streams(const ServeInputs& in, unsigned clients,
                          std::uint64_t seed) {
  ChurnInputs out;
  std::unordered_set<GemmShape> universe(in.pool.begin(), in.pool.end());
  for (std::size_t n = 0; n < in.networks.size(); ++n) {
    for (const int batch : pool_batches(in.networks[n])) {
      Graph graph{graph_shapes(in.networks[n], batch), {}};
      for (const auto& shape : graph.shapes) {
        graph.expect.push_back(in.answers.at(shape));
      }
      out.graphs.push_back(std::move(graph));
    }
  }
  const std::size_t pool_graphs = out.graphs.size();

  // New batch sizes: every shape they lower to is absent from every other
  // graph (so a pool batch size never qualifies), no two clients ever share
  // a cold shape, and every count repeats exactly.
  aks::common::Rng rng(mix(seed, 2));
  const std::size_t cold_per_client = kChurnOps / kBlock;
  std::vector<std::vector<std::uint32_t>> owned(clients);
  for (unsigned c = 0; c < clients; ++c) {
    for (std::size_t k = 0; k < cold_per_client; ++k) {
      const std::size_t network = (c + k) % in.networks.size();
      while (true) {
        const int batch = static_cast<int>(1 + rng.uniform_index(kMaxNewBatch));
        auto shapes = graph_shapes(in.networks[network], batch);
        if (std::any_of(shapes.begin(), shapes.end(), [&](const GemmShape& s) {
              return universe.count(s) > 0;
            })) {
          continue;
        }
        universe.insert(shapes.begin(), shapes.end());
        owned[c].push_back(static_cast<std::uint32_t>(out.graphs.size()));
        out.new_shapes += std::set<GemmShape>(shapes.begin(), shapes.end()).size();
        out.graphs.push_back({std::move(shapes), {}});
        break;
      }
    }
  }
  out.new_graphs = out.graphs.size() - pool_graphs;

  out.streams.resize(clients);
  for (unsigned c = 0; c < clients; ++c) {
    aks::common::Rng client_rng(mix(seed, 300 + c));
    std::size_t introduced = 0;
    for (std::size_t block = 0; block < cold_per_client; ++block) {
      const std::size_t cold_at = client_rng.uniform_index(kBlock);
      for (std::size_t p = 0; p < kBlock; ++p) {
        ChurnRequest request;
        if (p == cold_at) {
          request = {owned[c][introduced++], true};
        } else {
          const std::size_t pick =
              client_rng.uniform_index(pool_graphs + introduced);
          request.graph = static_cast<std::uint32_t>(
              pick < pool_graphs ? pick : owned[c][pick - pool_graphs]);
        }
        out.streams[c].push_back(request);
        const auto& shapes = out.graphs[request.graph].shapes;
        out.requested.insert(shapes.begin(), shapes.end());
      }
    }
  }
  return out;
}

/// The counts that must repeat on every pass.
struct PassCounts {
  std::uint64_t hits = 0, misses = 0, coalesced = 0, duplicates = 0;
  std::uint64_t batch_shapes = 0, batch_dedup = 0, cached = 0;
  std::uint64_t appended = 0, selections = 0, journal_bytes = 0;
  double warmup_seconds = 0.0;

  [[nodiscard]] bool same_counts(const PassCounts& o) const {
    return hits == o.hits && misses == o.misses && coalesced == o.coalesced &&
           duplicates == o.duplicates && batch_shapes == o.batch_shapes &&
           batch_dedup == o.batch_dedup && cached == o.cached &&
           appended == o.appended && selections == o.selections &&
           journal_bytes == o.journal_bytes;
  }
};

struct ChurnPass {
  double setup = 0.0;
  double wall = 0.0;
  /// Per client: requests done, and seconds from the pass start to the end
  /// of its own stream.
  std::vector<std::uint64_t> ops;
  std::vector<double> busy;
  std::uint64_t wrong = 0;
  PassCounts counts;
};

/// One pass: fresh journal copy, timed set-up, every client replays its
/// stream (the first `max_ops` requests when non-zero), final flush.
ChurnPass churn_pass(const ServeInputs& in, ChurnInputs& churn,
                     const Options& options, const TimerFn& timer,
                     const aks::perf::DeviceSpec& device,
                     std::vector<Samples>& samples, std::uint64_t max_ops) {
  const auto journal = options.run_dir / "pass.journal";
  std::filesystem::copy_file(in.journal, journal,
                             std::filesystem::copy_options::overwrite_existing);
  ChurnPass pass;
  const auto start = Clock::now();
  std::optional<ServeStack> stack;
  stack.emplace(journal, in.candidates, timer, device);
  pass.setup = seconds_since(start);

  const auto clients = static_cast<unsigned>(churn.streams.size());
  pass.ops.assign(clients, 0);
  pass.busy.assign(clients, 0.0);
  std::vector<std::uint64_t> wrong(clients, 0);
  pass.wall = run_clients(clients, 0.0, [&](unsigned c,
                                            const std::atomic<bool>&) {
    const auto client_start = Clock::now();
    auto& service = stack->service();
    const auto& stream = churn.streams[c];
    const std::size_t n = max_ops == 0 ? stream.size()
                                       : std::min<std::size_t>(max_ops, stream.size());
    for (std::size_t i = 0; i < n; ++i) {
      Graph& graph = churn.graphs[stream[i].graph];
      const auto begin = Clock::now();
      std::vector<KernelConfig> configs;
      {
        aks::trace::Span span("serve.select_batch_us",
                              {aks::trace::arg("cold", std::uint64_t{stream[i].cold})});
        configs = service.select_batch(graph.shapes);
      }
      samples[c].add(
          std::chrono::duration<double, std::milli>(Clock::now() - begin).count());
      // Only the owner touches a new graph, so the first answer needs no lock.
      if (graph.expect.empty()) graph.expect = configs;
      wrong[c] += configs == graph.expect ? 0U : 1U;
      if (c == 0 && (i + 1) % kFlushEvery == 0) {
        aks::trace::Span span("store.flush_ms");
        (void)stack->store().flush();
      }
    }
    pass.ops[c] = n;
    pass.busy[c] = seconds_since(client_start);
  }, [] {});
  for (const std::uint64_t w : wrong) pass.wrong += w;

  (void)stack->store().flush();
  const auto stats = stack->service().stats();
  const auto store_stats = stack->store().stats();
  pass.counts = {stats.hits,          stats.misses,
                 stats.coalesced_waits, stats.duplicate_sweeps,
                 stats.batch_shapes,  stats.batch_dedup,
                 stats.cached_shapes, store_stats.appended,
                 store_stats.selections,
                 std::filesystem::file_size(journal),
                 stats.warmup_seconds};
  return pass;
}

}  // namespace

// ------------------------------------------------------------ workloads

void run_serve_hot(const Options& options, Report& report) {
  const auto device = aks::perf::DeviceSpec::amd_r9_nano();
  const aks::perf::TimingModel timing(device, kTimingNoise, kTimingSeed);
  const TimerFn timer = [&timing](const KernelConfig& config,
                                  const GemmShape& shape) {
    aks::trace::Span span("perfmodel.best_of_us");
    return timing.best_of(config, shape, kTrialIterations);
  };
  const ServeInputs in = prepare(options, timer, device);
  const unsigned clients = client_threads(options);
  const auto streams = zipf_streams(in, clients, options.seed);

  std::set<GemmShape> requested;
  std::unordered_map<GemmShape, std::size_t> frequency;
  for (const auto& stream : streams) {
    for (const auto& request : stream) {
      requested.insert(request.shape);
      ++frequency[request.shape];
    }
  }
  std::vector<std::size_t> counts;
  for (const auto& [shape, count] : frequency) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  std::size_t top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, counts.size()); ++i) {
    top10 += counts[i];
  }
  property("pool shapes (seed journal)", std::to_string(in.pool.size()));
  property("distinct shapes requested", std::to_string(requested.size()));
  property("working set (journal bytes)",
           std::to_string(std::filesystem::file_size(in.journal)));
  property("zipf exponent", fixed(kZipfExponent, 2));
  property("share of requests to top 10 shapes",
           fixed(static_cast<double>(top10) /
                     static_cast<double>(clients * kHotStreamLength),
                 3));
  property("tuner candidates (tree-pruned)",
           std::to_string(in.candidates.size()));

  std::vector<double> setups;
  std::optional<ServeStack> stack;
  for (int i = 0; i < kHotSetups; ++i) {
    stack.reset();
    const auto start = Clock::now();
    stack.emplace(in.journal, in.candidates, timer, device);
    setups.push_back(seconds_since(start));
  }

  const double measure = options.trace ? options.seconds / 2 : options.seconds;
  const HotPhase warm =
      serve_hot_phase(stack->service(), streams, 0.0, kHotStreamLength,
                      options.seed);
  const HotPhase phase =
      serve_hot_phase(stack->service(), streams, measure, 0, options.seed);
  report.ops(warm.ops + phase.ops, warm.wrong + phase.wrong);
  const double rss = peak_rss_mb();
  const auto stats = stack->service().stats();
  report.require(stats.misses == 0 && stats.duplicate_sweeps == 0,
                 "serve_hot: every request hit (misses " +
                     std::to_string(stats.misses) + ", duplicate sweeps " +
                     std::to_string(stats.duplicate_sweeps) + ")");
  property("measured hit ratio", fixed(hit_ratio(stats), 4));
  property("client threads", std::to_string(clients));

  std::unordered_map<GemmShape, KernelConfig> served;
  for (const auto& stream : streams) {
    for (const auto& request : stream) served[request.shape] = request.expect;
  }
  const double quality = quality_pct(quality_set(requested, options.seed), served);
  const double op_ns = median(phase.latency_ns);

  if (!options.trace) {
    report.metrics_from(end_to_end_metrics(),
                        {{"setup_s", median(setups)},
                         {"op_ms", op_ns / 1e6},
                         {"ops_per_s", median(phase.window_rates)},
                         {"quality_pct", quality},
                         {"rss_mb", rss}});
    std::cout << "windows: " << phase.window_rates.size()
              << ", window rate p10/p50/p90 "
              << fixed(quantile(phase.window_rates, 0.1), 0) << "/"
              << fixed(quantile(phase.window_rates, 0.5), 0) << "/"
              << fixed(quantile(phase.window_rates, 0.9), 0) << " ops/s\n";
    std::vector<double> latency_ms;
    for (const double ns : phase.latency_ns) latency_ms.push_back(ns / 1e6);
    print_tail(latency_ms, phase.ops);
    return;
  }

  stack.reset();
  aks::trace::TraceOptions trace_options;
  trace_options.buffer_bytes_per_thread = ring_bytes(4 * kHotTracedOps);
  aks::trace::TraceSession session(trace_options);
  stack.emplace(in.journal, in.candidates, timer, device);
  const HotPhase traced = serve_hot_phase(stack->service(), streams, 0.0,
                                          kHotTracedOps, options.seed);
  session.stop();
  report.ops(traced.ops, traced.wrong);
  const auto traced_stats = stack->service().stats();
  const auto spans = group_spans(session.events());
  const auto dropped = session.stats().dropped;
  const std::string files = export_trace(session, options);

  const double traced_op_ns = median(traced.latency_ns);
  const double select_ns = median(span_group(spans, "serve.select_ns").ns);
  std::cout << "accounting (traced, per op): op " << fixed(traced_op_ns, 1)
            << " ns = serve.select " << fixed(select_ns, 1)
            << " ns + unaccounted " << fixed(traced_op_ns - select_ns, 1)
            << " ns (timer and loop)\n"
            << "trace files: " << files << ".{json,csv}\n";
  report.metrics_from(
      per_layer_metrics(),
      {{"serve.select_ns", select_ns},
       {"serve.hit_ratio", hit_ratio(traced_stats)},
       {"serve.coalesced_waits", static_cast<double>(traced_stats.coalesced_waits)},
       {"serve.duplicate_sweeps", static_cast<double>(traced_stats.duplicate_sweeps)},
       {"serve.cached_shapes", static_cast<double>(traced_stats.cached_shapes)},
       {"store.load_ms", median(span_group(spans, "store.load_ms").ns) / 1e6},
       {"store.warm_start_ms", median(span_group(spans, "store.warm_start_ms").ns) / 1e6},
       {"trace.overhead_pct", 100.0 * (traced_op_ns / op_ns - 1.0)},
       {"trace.dropped", static_cast<double>(dropped)}});
}

void run_serve_churn(const Options& options, Report& report) {
  const auto device = aks::perf::DeviceSpec::amd_r9_nano();
  const aks::perf::TimingModel timing(device, kTimingNoise, kTimingSeed);
  const TimerFn timer = [&timing](const KernelConfig& config,
                                  const GemmShape& shape) {
    aks::trace::Span span("perfmodel.best_of_us");
    return timing.best_of(config, shape, kTrialIterations);
  };
  const ServeInputs in = prepare(options, timer, device);
  const unsigned clients = client_threads(options);
  ChurnInputs churn = churn_streams(in, clients, options.seed);

  const std::size_t ops_per_pass = clients * kChurnOps;
  property("requests per pass", std::to_string(ops_per_pass));
  property("cold-request share",
           fixed(1.0 / static_cast<double>(kBlock), 3));
  property("new batch sizes (graphs) per pass", std::to_string(churn.new_graphs));
  property("new shapes per pass", std::to_string(churn.new_shapes));
  property("distinct shapes requested", std::to_string(churn.requested.size()));
  property("seed journal shapes", std::to_string(in.pool.size()));
  property("store flush cadence (client 0 requests)", std::to_string(kFlushEvery));

  std::vector<Samples> samples;
  for (unsigned c = 0; c < clients; ++c) {
    samples.emplace_back(kSamplesPerClient, mix(options.seed, 400 + c));
  }
  const double measure = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> setups;
  double wall = 0.0;
  std::uint64_t total_ops = 0;
  std::vector<double> pass_rates;
  std::uint64_t mismatched_passes = 0;
  std::optional<PassCounts> first;
  while (wall < measure) {
    const ChurnPass pass =
        churn_pass(in, churn, options, timer, device, samples, 0);
    setups.push_back(pass.setup);
    wall += pass.wall;
    // Each client's rate over its own busy time, summed: the tail of a pass
    // in which a client waits for the slowest one is not serving time.
    double rate = 0.0;
    for (unsigned c = 0; c < clients; ++c) {
      rate += static_cast<double>(pass.ops[c]) / pass.busy[c];
      total_ops += pass.ops[c];
      report.ops(pass.ops[c], 0);
    }
    pass_rates.push_back(rate);
    report.ops(0, pass.wrong);
    if (!first) first = pass.counts;
    if (!pass.counts.same_counts(*first)) ++mismatched_passes;
  }
  const double rss = peak_rss_mb();
  report.require(first->duplicates == 0, "serve_churn: duplicate sweeps 0");
  report.require(first->misses == churn.new_shapes,
                 "serve_churn: one sweep per new shape (" +
                     std::to_string(first->misses) + " of " +
                     std::to_string(churn.new_shapes) + ")");
  report.require(mismatched_passes == 0,
                 "serve_churn: every count repeats on each of " +
                     std::to_string(setups.size()) + " passes");
  const PassCounts& counts = *first;
  const double ratio =
      static_cast<double>(counts.hits) /
      static_cast<double>(counts.hits + counts.misses + counts.coalesced);
  property("measured hit ratio", fixed(ratio, 4));
  property("cached shapes at pass end", std::to_string(counts.cached));
  property("client threads", std::to_string(clients));

  std::vector<double> latency;
  for (const auto& s : samples) s.append_to(latency);
  std::unordered_map<GemmShape, KernelConfig> served;
  for (const auto& graph : churn.graphs) {
    for (std::size_t i = 0; i < graph.shapes.size(); ++i) {
      served[graph.shapes[i]] = graph.expect[i];
    }
  }
  const double quality =
      quality_pct(quality_set(churn.requested, options.seed), served);
  const double op_ms = median(latency);

  if (!options.trace) {
    report.metrics_from(end_to_end_metrics(),
                        {{"setup_s", median(setups)},
                         {"op_ms", op_ms},
                         {"ops_per_s", median(pass_rates)},
                         {"quality_pct", quality},
                         {"rss_mb", rss}});
    std::cout << "passes: " << setups.size() << ", pass rate p10/p50/p90 "
              << fixed(quantile(pass_rates, 0.1), 0) << "/"
              << fixed(quantile(pass_rates, 0.5), 0) << "/"
              << fixed(quantile(pass_rates, 0.9), 0) << " ops/s\n";
    print_tail(latency, total_ops);
    return;
  }

  std::vector<Samples> traced_samples;
  for (unsigned c = 0; c < clients; ++c) {
    traced_samples.emplace_back(kChurnOps, mix(options.seed, 500 + c));
  }
  // Events per client: two spans per request (benchmark and service), and
  // per cold shape the warm-up and sweep spans plus a trial and a timer span
  // per candidate; client 0 adds two spans per flush.
  std::size_t widest = 0;
  for (const auto& graph : churn.graphs) {
    widest = std::max(widest, graph.shapes.size());
  }
  aks::trace::TraceOptions trace_options;
  trace_options.buffer_bytes_per_thread =
      ring_bytes(4 * kChurnOps + 4 * (kChurnOps / kFlushEvery) +
                 (kChurnOps / kBlock) * widest * (4 + 4 * in.candidates.size()));
  aks::trace::TraceSession session(trace_options);
  const ChurnPass traced = churn_pass(in, churn, options, timer, device,
                                      traced_samples, 0);
  session.stop();
  std::uint64_t traced_ops = 0;
  for (const std::uint64_t n : traced.ops) traced_ops += n;
  report.ops(traced_ops, traced.wrong);
  report.require(traced.counts.same_counts(counts),
                 "serve_churn: the traced pass repeats the untraced counts");
  const auto spans = group_spans(session.events());
  const auto dropped = session.stats().dropped;
  const std::string files = export_trace(session, options);

  std::vector<double> traced_latency;
  for (const auto& s : traced_samples) s.append_to(traced_latency);
  const double misses = static_cast<double>(traced.counts.misses);
  const double best_of_total = span_group(spans, "perfmodel.best_of_us").total_ns;
  const double warm_ns = span_group(spans, "serve.select_batch_us").total_ns;
  const double cold_ns = span_group(spans, "serve.select_batch_us.cold").total_ns;
  const double flush_ns = span_group(spans, "store.flush_ms").total_ns;
  double op_total_ms = 0.0;
  for (const double v : traced_latency) op_total_ms += v;
  const auto n_ops = static_cast<double>(traced_ops);
  const double sweep_ns = span_group(spans, "tuner.sweep").total_ns;
  std::cout << "accounting (traced, mean per op): op "
            << fixed(op_total_ms / n_ops * 1e3, 2) << " us = select_batch warm "
            << fixed(warm_ns / n_ops / 1e3, 2) << " us + cold "
            << fixed(cold_ns / n_ops / 1e3, 2) << " us + unaccounted "
            << fixed((op_total_ms * 1e6 - warm_ns - cold_ns) / n_ops / 1e3, 2)
            << " us; client 0's store.flush between ops adds "
            << fixed(flush_ns / n_ops / 1e3, 2) << " us\n"
            << "accounting (traced, cold path total): select_batch "
            << fixed(cold_ns / 1e6, 2) << " ms = tuner.sweep "
            << fixed(sweep_ns / 1e6, 2) << " ms (TimingModel "
            << fixed(best_of_total / 1e6, 2)
            << " ms) + publish, store consult and enqueue "
            << fixed((cold_ns - sweep_ns) / 1e6, 2) << " ms\n"
            << "trace files: " << files << ".{json,csv}\n";
  report.metrics_from(
      per_layer_metrics(),
      {{"serve.select_batch_us", median(span_group(spans, "serve.select_batch_us").ns) / 1e3},
       {"serve.hit_ratio", ratio},
       {"serve.coalesced_waits", static_cast<double>(counts.coalesced)},
       {"serve.duplicate_sweeps", static_cast<double>(counts.duplicates)},
       {"serve.batch_dedup_ratio",
        static_cast<double>(counts.batch_dedup) /
            static_cast<double>(counts.batch_shapes)},
       {"serve.cached_shapes", static_cast<double>(counts.cached)},
       {"serve.warmup_ms", counts.warmup_seconds * 1e3 /
                               static_cast<double>(counts.misses)},
       {"core.tuner_trials",
        static_cast<double>(span_group(spans, "perfmodel.best_of_us").ns.size()) / misses},
       {"core.tuner_self_us",
        (span_group(spans, "tuner.sweep").total_ns - best_of_total) / misses / 1e3},
       {"perfmodel.best_of_us", median(span_group(spans, "perfmodel.best_of_us").ns) / 1e3},
       {"store.load_ms", median(span_group(spans, "store.load_ms").ns) / 1e6},
       {"store.warm_start_ms", median(span_group(spans, "store.warm_start_ms").ns) / 1e6},
       {"store.flush_ms", median(span_group(spans, "store.flush_ms").ns) / 1e6},
       {"store.appended", static_cast<double>(counts.appended)},
       {"store.journal_bytes", static_cast<double>(counts.journal_bytes)},
       {"trace.overhead_pct", 100.0 * (median(traced_latency) / op_ms - 1.0)},
       {"trace.dropped", static_cast<double>(dropped)}});
}

}  // namespace perfbench
