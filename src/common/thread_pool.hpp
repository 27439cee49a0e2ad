// Fixed-size thread pool with a blocking, reentrancy-safe parallel_for.
//
// Used by the ND-range executor (work-groups claimed in chunks) and the
// benchmark runner. Following the Core Guidelines concurrency rules, tasks
// must not share mutable state: parallel_for hands each invocation a
// distinct index range and joins before returning, so lifetimes are simple
// and no synchronisation is needed inside user code.
//
// Reentrancy guarantee: parallel_for may be called from inside a task that
// is itself running on this pool (nested parallelism), to any depth, without
// deadlocking. Work is claimed from a shared chunk counter and the caller
// always participates: it executes chunks of its own loop first, so the loop
// completes even when every worker is busy. While its last chunks finish on
// other workers, a caller that is itself a pool worker help-drains the task
// queue (executing other queued work) instead of sleeping. This is what lets
// `syclrt::Queue` submissions and `run_model_benchmarks` nest — e.g. a
// kernel launch from inside a pooled benchmark loop — which previously
// deadlocked once every worker sat in a nested wait.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace aks::common {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count), partitioned into contiguous
  /// chunks claimed dynamically by the workers and the calling thread.
  /// A loop is cut into up to a fixed small multiple of num_threads()
  /// chunks, so threads that finish early take over the remaining work;
  /// at most min(count, num_threads()) - 1 helper tasks are enqueued.
  /// Blocks until all invocations complete. Safe to call from inside a task
  /// running on this pool (see the reentrancy guarantee above). Exceptions
  /// from `fn` are captured and the first one is rethrown.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Enqueues one fire-and-forget task and returns immediately; tasks run
  /// FIFO on the workers. The caller owns result/error delivery (e.g. via a
  /// captured std::promise — see serve::SelectionService::select_async). A
  /// posted task may itself call parallel_for on this pool (the reentrancy
  /// guarantee covers it) and blocked parallel_for callers help-drain
  /// posted tasks, so posting from inside a task cannot deadlock the pool.
  void post(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  struct ParallelJob;

  void worker_loop();
  void enqueue(std::function<void()> task);
  /// Pops and runs one queued task if any is pending; used by blocked
  /// parallel_for callers on worker threads to help drain the queue.
  bool try_run_one_task();

  std::vector<std::thread> workers_;
  // Guards the task queue and the stop flag; workers block on cv_ with only
  // this lock held. Leaf lock by construction: enqueue/pop never call user
  // code under it (tasks run after the guard scope closes).
  aks::Mutex mutex_{"pool.queue"};
  std::queue<std::function<void()>> tasks_ AKS_GUARDED_BY(mutex_);
  aks::CondVar cv_;
  bool stopping_ AKS_GUARDED_BY(mutex_) = false;
};

}  // namespace aks::common
