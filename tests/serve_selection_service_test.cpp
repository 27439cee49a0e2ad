// SelectionService: sharded cache, single-flight warm-up, metrics. The
// stress tests drive mixed hot/cold traffic from many threads and assert
// the serving contract — exactly one warm-up per shape, every thread sees
// the same winner, counters monotonic and coherent. Runs under
// ThreadSanitizer in CI (the tsan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/online.hpp"
#include "gemm/config.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"

namespace aks::serve {
namespace {

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {32 + 16 * i, 64 + 8 * ((i * 5) % 13), 32 + 24 * ((i * 11) % 7)});
  }
  return shapes;
}

// Warm-up function that records per-shape invocation counts (guarded by a
// mutex so the test itself is race-free) and returns a deterministic
// config for each shape.
class CountingWarmUp {
 public:
  explicit CountingWarmUp(std::chrono::microseconds delay = {})
      : delay_(delay) {}

  gemm::KernelConfig operator()(const gemm::GemmShape& shape) {
    {
      std::lock_guard lock(m_);
      ++calls_[shape];
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    const std::size_t index =
        (shape.m * 31 + shape.k * 7 + shape.n) % gemm::enumerate_configs().size();
    return gemm::enumerate_configs()[index];
  }

  [[nodiscard]] std::map<gemm::GemmShape, int> calls() const {
    std::lock_guard lock(m_);
    return calls_;
  }

 private:
  std::chrono::microseconds delay_;
  mutable std::mutex m_;
  std::map<gemm::GemmShape, int> calls_;
};

TEST(SelectionService, CachesAndCountsSingleThreaded) {
  auto warm = std::make_shared<CountingWarmUp>();
  SelectionService service(
      [warm](const gemm::GemmShape& s) { return (*warm)(s); });
  const gemm::GemmShape shape{128, 128, 128};

  const auto first = service.select(shape);
  const auto second = service.select(shape);
  EXPECT_EQ(gemm::config_index(first), gemm::config_index(second));
  EXPECT_EQ(warm->calls().at(shape), 1);

  const auto stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced_waits, 0u);
  EXPECT_EQ(stats.duplicate_sweeps, 0u);
  EXPECT_EQ(stats.cached_shapes, 1u);
  EXPECT_GE(stats.warmup_seconds, 0.0);
}

TEST(SelectionService, ConcurrentFirstSightWarmsUpExactlyOnce) {
  auto warm =
      std::make_shared<CountingWarmUp>(std::chrono::microseconds(2000));
  SelectionService service(
      [warm](const gemm::GemmShape& s) { return (*warm)(s); });
  const gemm::GemmShape shape{256, 64, 512};

  constexpr std::size_t kThreads = 8;
  std::vector<std::size_t> chosen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { chosen[t] = gemm::config_index(service.select(shape)); });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(warm->calls().at(shape), 1) << "duplicate warm-up sweep";
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(chosen[t], chosen[0]);

  const auto stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.duplicate_sweeps, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced_waits, kThreads);
}

TEST(SelectionService, StressMixedHotColdTraffic) {
  auto warm = std::make_shared<CountingWarmUp>(std::chrono::microseconds(200));
  SelectionService service(
      [warm](const gemm::GemmShape& s) { return (*warm)(s); });
  const auto shapes = test_shapes(32);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSelects = 400;

  // Each thread interleaves a hot subset (early shapes, high repeat rate)
  // with progressively colder shapes, so warm-ups race with cache hits.
  std::vector<std::vector<std::size_t>> winners(
      kThreads, std::vector<std::size_t>(shapes.size(), 0));
  std::atomic<bool> monotonic{true};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServiceStats last;
      for (std::size_t i = 0; i < kSelects; ++i) {
        const std::size_t s =
            (i % 3 == 0) ? (i * (t + 3)) % shapes.size() : i % 4;
        // +1 so 0 keeps meaning "never touched" (config 0 is a real index).
        winners[t][s] = gemm::config_index(service.select(shapes[s])) + 1;
        if (i % 64 == 0) {
          // Counters must never go backwards, from any observer.
          const auto now = service.stats();
          if (now.hits < last.hits || now.misses < last.misses ||
              now.coalesced_waits < last.coalesced_waits ||
              now.warmup_seconds < last.warmup_seconds) {
            monotonic.store(false);
          }
          last = now;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(monotonic.load());
  // Exactly-once warm-up per touched shape.
  for (const auto& [shape, calls] : warm->calls()) {
    EXPECT_EQ(calls, 1) << "shape " << shape.to_string()
                        << " warmed up " << calls << " times";
  }
  // Cache consistency: all threads that touched a shape agree.
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    std::set<std::size_t> distinct;
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (winners[t][s] != 0) distinct.insert(winners[t][s]);
    }
    EXPECT_LE(distinct.size(), 1u)
        << "threads disagree on shape " << shapes[s].to_string();
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.duplicate_sweeps, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced_waits,
            kThreads * kSelects);
  EXPECT_EQ(stats.misses, warm->calls().size());
  EXPECT_EQ(stats.cached_shapes, warm->calls().size());
}

TEST(SelectionService, FailedWarmUpPropagatesAndRetries) {
  std::atomic<int> attempts{0};
  SelectionService service([&](const gemm::GemmShape& shape) {
    if (attempts.fetch_add(1) == 0) throw std::runtime_error("trial failed");
    const std::size_t index = shape.m % gemm::enumerate_configs().size();
    return gemm::enumerate_configs()[index];
  });
  const gemm::GemmShape shape{64, 64, 64};
  EXPECT_THROW((void)service.select(shape), std::runtime_error);
  // The failed entry was dropped: the next request retries and succeeds.
  const auto config = service.select(shape);
  EXPECT_EQ(gemm::config_index(config), 64 % gemm::enumerate_configs().size());
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(service.stats().cached_shapes, 1u);
}

TEST(SelectionService, ServesOnlineTunerWithExactWarmUpAccounting) {
  const std::vector<std::size_t> candidates = {0, 100, 250, 400, 639};
  const perf::TimingModel timing(perf::DeviceSpec::amd_r9_nano(), 0.0);
  select::OnlineTuner tuner(
      candidates, [&](const gemm::KernelConfig& config,
                      const gemm::GemmShape& shape) {
        return timing.best_of(config, shape, 3);
      });
  SelectionService service(tuner);
  const auto shapes = test_shapes(8);

  constexpr std::size_t kThreads = 6;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t rep = 0; rep < 4; ++rep) {
        for (const auto& shape : shapes) (void)service.select(shape);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Single-flight means the tuner swept each shape exactly once: its
  // warm-up accounting stays exact under concurrency.
  EXPECT_EQ(tuner.sweeps(), shapes.size());
  EXPECT_EQ(service.stats().duplicate_sweeps, 0u);
}

// Regression test for the hit-count reconciliation: stats() folds the
// per-shard hit stripes into serve.hits under a sync mutex, tracking the
// already-folded total separately, so concurrent observers each see a
// monotonic, never-double-counted value that lands exactly on the true
// total once traffic stops.
TEST(SelectionService, StatsConsistentUnderConcurrentReaders) {
  auto warm = std::make_shared<CountingWarmUp>();
  SelectionService service(
      [warm](const gemm::GemmShape& s) { return (*warm)(s); });
  const auto shapes = test_shapes(16);
  for (const auto& shape : shapes) (void)service.select(shape);  // warm all

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kReaders = 3;
  constexpr std::size_t kReps = 200;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t prev = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto stats = service.stats();
        EXPECT_GE(stats.hits, prev);  // monotonic: no lost or doubled delta
        EXPECT_LE(stats.hits, kClients * kReps * 16);
        prev = stats.hits;
      }
    });
  }
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        for (const auto& shape : shapes) (void)service.select(shape);
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, kClients * kReps * 16);
  EXPECT_EQ(stats.misses, 16u);
}

TEST(SelectionService, MetricsExportToCsv) {
  auto warm = std::make_shared<CountingWarmUp>();
  SelectionService service(
      [warm](const gemm::GemmShape& s) { return (*warm)(s); });
  for (const auto& shape : test_shapes(4)) {
    (void)service.select(shape);
    (void)service.select(shape);
  }
  const std::string csv = service.metrics().to_csv();
  EXPECT_NE(csv.find("serve.hits,counter,value,4"), std::string::npos);
  EXPECT_NE(csv.find("serve.misses,counter,value,4"), std::string::npos);
  // Select latency is sampled 1-in-32 per thread, so only the row's
  // presence is stable, not its count.
  EXPECT_NE(csv.find("serve.select_latency,histogram,count,"),
            std::string::npos);
  EXPECT_NE(csv.find("serve.warmup_latency,histogram,count,4"),
            std::string::npos);
  EXPECT_NE(csv.find("serve.warmup_seconds,accumulator"), std::string::npos);
}

TEST(SelectionService, ColdPathLedgerCoversPublishAndStoreEnqueue) {
  // Regression for a miss-path metrics bug: warm-up latency used to be
  // sampled right after the warm-up function returned, *before* the result
  // publish and the store write-behind enqueue — undercounting the cold
  // cost a miss actually adds over a hit. With an instant warm-up function
  // and an attached store, the honestly-sampled cold mean must be at least
  // the measured warm mean: the cold path does a strict superset of the
  // warm path's work (entry allocation, publish, record validation and
  // store insert). Pre-fix, the cold sample was just the trivial function
  // call and sat well below a warm cache hit. The warm side is the fastest
  // of several timed passes, so one host preemption cannot inflate it.
  const auto store_path = std::filesystem::temp_directory_path() /
                          "aks_warm_le_cold.journal";
  std::filesystem::remove(store_path);
  store::SelectionStore store(store_path);

  SelectionService service([](const gemm::GemmShape&) {
    return gemm::enumerate_configs()[0];
  });
  (void)service.warm_start(store, perf::DeviceSpec::amd_r9_nano());

  const auto shapes = test_shapes(512);
  for (const auto& shape : shapes) (void)service.select(shape);  // all cold

  // Prime, then keep the fastest of several timed warm passes.
  for (const auto& shape : shapes) (void)service.select(shape);
  double warm_mean = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 5; ++pass) {
    common::Timer timer;
    for (const auto& shape : shapes) (void)service.select(shape);
    warm_mean = std::min(warm_mean, timer.elapsed_seconds() /
                                        static_cast<double>(shapes.size()));
  }

  const auto stats = service.stats();
  ASSERT_GE(stats.misses, shapes.size());
  const double cold_mean =
      stats.warmup_seconds / static_cast<double>(stats.misses);
  EXPECT_LE(warm_mean, cold_mean)
      << "cold-path ledger (" << cold_mean * 1e9
      << " ns/miss) undercounts: a warm hit measured " << warm_mean * 1e9
      << " ns — the miss sample must cover publish + store enqueue";
  std::filesystem::remove(store_path);
}

}  // namespace
}  // namespace aks::serve
