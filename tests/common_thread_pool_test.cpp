// Regression tests for ThreadPool reentrancy: nested parallel_for used to
// deadlock because every blocked caller slept on a condition variable while
// occupying the worker that should have drained the queue. The fixed pool
// lets the caller claim chunks itself and help-drain while waiting, so the
// nesting patterns exercised here (including a real kernel launch from
// inside a pooled loop, the benchmark runner's shape) must all complete.
//
// Every nesting test runs under a watchdog that kills the binary if the
// pool deadlocks again — a hang would otherwise stall the whole CI job
// instead of reporting a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "dataset/benchmark_runner.hpp"
#include "gemm/config.hpp"

namespace aks {
namespace {

// Runs `body` on a scratch thread; if it fails to finish before the
// deadline the process exits non-zero (ctest reports the failure) instead
// of hanging forever on a deadlocked pool.
void with_watchdog(const std::function<void()>& body,
                   std::chrono::seconds deadline = std::chrono::seconds(120)) {
  auto task = std::async(std::launch::async, body);
  if (task.wait_for(deadline) == std::future_status::timeout) {
    std::cerr << "watchdog: thread-pool test deadlocked\n";
    std::_Exit(3);
  }
  task.get();
}

TEST(ThreadPool, EveryIndexExecutedExactlyOnce) {
  common::ThreadPool pool(4);
  // One index; fewer than the threads; one past the thread count; one past
  // 32 chunks (8 per thread); more than 32 but not a multiple of it; many.
  for (const std::size_t count : {1u, 3u, 5u, 33u, 67u, 1000u}) {
    std::vector<std::atomic<int>> counts(count);
    pool.parallel_for(count, [&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

// A loop is cut into more chunks than threads, so an index that stalls its
// thread cannot hold back indices that would otherwise share its chunk.
// With one chunk per thread, index 1 shared index 0's chunk and this hung.
TEST(ThreadPool, StalledIndexDoesNotHoldBackItsNeighbours) {
  with_watchdog(
      [] {
        common::ThreadPool pool(4);
        std::atomic<std::size_t> others{0};
        pool.parallel_for(8, [&](std::size_t i) {
          if (i != 0) {
            others.fetch_add(1, std::memory_order_acq_rel);
            return;
          }
          while (others.load(std::memory_order_acquire) < 7) {
            std::this_thread::yield();
          }
        });
        EXPECT_EQ(others.load(), 7u);
      },
      std::chrono::seconds(30));
}

TEST(ThreadPool, MainThreadIsNotAWorker) {
  common::ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_FALSE(common::ThreadPool::global().on_worker_thread());
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  with_watchdog([] {
    common::ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) {
        sum.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 16);
  });
}

TEST(ThreadPool, TriplyNestedParallelFor) {
  with_watchdog([] {
    common::ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(3, [&](std::size_t) {
        pool.parallel_for(3, [&](std::size_t) {
          sum.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
    EXPECT_EQ(sum.load(), 27);
  });
}

TEST(ThreadPool, NestedIndicesEachRunExactlyOnce) {
  with_watchdog([] {
    common::ThreadPool pool(3);
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<int>> counts(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t o) {
      pool.parallel_for(kInner, [&](std::size_t i) {
        counts[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
      });
    });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  });
}

TEST(ThreadPool, NestedExceptionPropagates) {
  with_watchdog([] {
    common::ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(4,
                          [&](std::size_t) {
                            pool.parallel_for(4, [&](std::size_t j) {
                              if (j == 3) throw std::runtime_error("boom");
                            });
                          }),
        std::runtime_error);
  });
}

// Regression (found by the thread-safety annotation pass): the final read
// of a job's stored exception happened outside the error mutex, racing the
// chunk that stores it. Repeated throwing loops under contention must
// always rethrow the stored exception with its message intact.
TEST(ThreadPool, ThrownErrorMessageAlwaysIntact) {
  with_watchdog([] {
    common::ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
      try {
        pool.parallel_for(64, [&](std::size_t i) {
          if (i % 16 == 0) throw std::runtime_error("intact-error-text");
        });
        FAIL() << "parallel_for must rethrow the chunk's exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "intact-error-text");
      }
    }
  });
}

// The exact shape of the historical deadlock: time_host_run constructs a
// syclrt::Queue and launches a kernel, which dispatches work-groups on the
// *global* pool — from inside a loop already running on the global pool
// (what run_model_benchmarks in host mode does).
TEST(ThreadPool, HostTimedKernelLaunchInsidePooledLoop) {
  with_watchdog([] {
    const gemm::KernelConfig config{};  // 1x1x1 tile on an 8x8 work-group
    const gemm::GemmShape shape{16, 16, 16};
    std::atomic<int> runs{0};
    common::ThreadPool::global().parallel_for(4, [&](std::size_t) {
      const double seconds = data::time_host_run(config, shape);
      EXPECT_GT(seconds, 0.0);
      runs.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(runs.load(), 4);
  });
}

// Concurrent top-level parallel_for calls from independent client threads
// (the serving layer's situation) must not interfere.
TEST(ThreadPool, ConcurrentCallersShareThePool) {
  with_watchdog([] {
    common::ThreadPool pool(2);
    constexpr std::size_t kClients = 4;
    std::vector<std::atomic<int>> sums(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        pool.parallel_for(100, [&](std::size_t) {
          sums[c].fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
    for (auto& t : clients) t.join();
    for (const auto& s : sums) EXPECT_EQ(s.load(), 100);
  });
}

}  // namespace
}  // namespace aks
