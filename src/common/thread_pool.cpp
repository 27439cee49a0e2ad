#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "common/error.hpp"

namespace aks::common {

namespace {
// Which pool (if any) the current thread belongs to. Lets parallel_for
// detect nested calls and switch from a blocking wait to the help-drain
// path, which is what makes nesting deadlock-free.
thread_local const ThreadPool* tl_worker_pool = nullptr;

// Chunks per participating thread. More chunks than threads lets the
// threads that finish early claim the rest, so one slow or descheduled
// thread, or a chunk of cheap indices, no longer sets a loop's time.
constexpr std::size_t kChunksPerThread = 8;
}  // namespace

// One parallel_for invocation. Chunks are claimed via `next` by any thread
// running run_chunks() — the enqueued helper tasks and the caller itself.
// The job outlives the caller via shared_ptr: a helper task that wakes up
// after every chunk was claimed only touches `next` and exits, so the
// caller may safely return (and destroy `fn`) once `done == chunks`.
struct ThreadPool::ParallelJob {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t chunks = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  aks::Mutex done_mutex{"pool.job.done"};
  aks::CondVar done_cv;
  aks::Mutex error_mutex{"pool.job.error"};
  std::exception_ptr error AKS_GUARDED_BY(error_mutex);

  [[nodiscard]] bool finished() const {
    return done.load(std::memory_order_acquire) == chunks;
  }

  void run_chunks() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      // Chunk sizes differ by at most one index.
      const std::size_t per_chunk = count / chunks;
      const std::size_t longer = count % chunks;
      const std::size_t begin = c * per_chunk + std::min(c, longer);
      const std::size_t end = begin + per_chunk + (c < longer ? 1 : 0);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        aks::MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        aks::MutexLock lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    aks::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tl_worker_pool == this; }

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      aks::MutexLock lock(mutex_);
      // Explicit predicate loop (not cv.wait(lock, pred)): thread-safety
      // analysis treats lambdas as separate functions, so the inline form
      // keeps the guarded reads visible to the checker.
      while (!stopping_ && tasks_.empty()) cv_.wait(lock);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) { enqueue(std::move(task)); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    aks::MutexLock lock(mutex_);
    AKS_CHECK(!stopping_, "enqueue on stopped thread pool");
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one_task() {
  std::function<void()> task;
  {
    aks::MutexLock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t threads = std::min(count, num_threads());
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<ParallelJob>();
  job->chunks = std::min(count, kChunksPerThread * num_threads());
  job->count = count;
  job->fn = &fn;

  for (std::size_t h = 1; h < threads; ++h) {
    enqueue([job] { job->run_chunks(); });
  }
  // The caller claims chunks too: the loop makes progress even when every
  // worker is busy (or is itself blocked in a nested parallel_for), which
  // is the reentrancy guarantee documented in the header.
  job->run_chunks();

  if (!job->finished()) {
    if (on_worker_thread()) {
      // Nested call: our remaining chunks are executing on other workers.
      // Help drain the queue (other jobs' chunks) instead of sleeping so
      // the pool as a whole keeps making progress; fall back to a short
      // timed wait when the queue is empty.
      while (!job->finished()) {
        if (try_run_one_task()) continue;
        aks::MutexLock lock(job->done_mutex);
        if (!job->finished()) {
          job->done_cv.wait_for(lock, std::chrono::microseconds(200));
        }
      }
    } else {
      aks::MutexLock lock(job->done_mutex);
      while (!job->finished()) job->done_cv.wait(lock);
    }
  }
  // Take the error under error_mutex: run_chunks writes `error` under the
  // same lock, and the final writer may be a helper task whose only
  // happens-before edge to us is the done counter (see run_chunks). Moving
  // it out leaves the job without a reference, so a helper that wakes
  // after every chunk was claimed and drops the job last never releases
  // the exception the caller is still handling.
  std::exception_ptr error;
  {
    aks::MutexLock lock(job->error_mutex);
    error = std::move(job->error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace aks::common
