// Annotated synchronization primitives — the enforcement point of the
// concurrency contract.
//
// aks::Mutex / aks::CondVar wrap the std primitives with two additions:
//
//  1. Clang Thread Safety Analysis capabilities (thread_annotations.hpp):
//     members declared `AKS_GUARDED_BY(mutex_)` and functions declared
//     `AKS_REQUIRES(mutex_)` are checked at compile time under
//     `-Wthread-safety`.
//  2. Lockdep instrumentation (check/lockdep.hpp): every mutex belongs to a
//     named lock class, and every nested acquisition feeds the global
//     lock-order graph, so any binary doubles as a deterministic
//     deadlock-potential detector (`akscheck locks`, AKS_LOCKDEP_OUT).
//
// Usage mirrors the std types it replaces:
//
//   aks::Mutex mutex_{"store.state"};
//   std::map<Key, Record> records_ AKS_GUARDED_BY(mutex_);
//   ...
//   aks::MutexLock lock(mutex_);       // std::lock_guard / unique_lock
//
// Condition waits take the guard itself, and callers write the predicate
// loop explicitly — TSA analyzes lambdas as separate functions, so the
// `cv.wait(lock, pred)` form defeats the analysis:
//
//   aks::MutexLock lock(mutex_);
//   while (!ready_) cv_.wait(lock);
//
// Lockdep records the acquisition edge *before* blocking on the underlying
// mutex, so a report captured from another thread names the cycle even
// while the deadlock is in progress.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "check/lockdep.hpp"
#include "common/thread_annotations.hpp"

namespace aks {

/// Exclusive mutex carrying a lock-class name. Instances constructed with
/// the same name (all shard stripes, all single-flight entries) share one
/// lockdep class, keeping the order graph small and schedule-independent.
class AKS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* lock_class)
      : class_id_(check::lockdep::register_class(lock_class)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AKS_ACQUIRE() {
    check::lockdep::on_acquire(class_id_);
    mutex_.lock();
  }
  void unlock() AKS_RELEASE() {
    check::lockdep::on_release(class_id_);
    mutex_.unlock();
  }

  [[nodiscard]] std::uint32_t lock_class() const { return class_id_; }

 private:
  friend class CondVar;
  std::mutex mutex_;
  std::uint32_t class_id_;
};

/// RAII exclusive guard (replaces std::lock_guard / std::unique_lock).
/// Supports mid-scope unlock()/lock() for drop-the-lock-and-work patterns;
/// the destructor releases only if still held.
class AKS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) AKS_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
  }
  ~MutexLock() AKS_RELEASE() {
    if (owned_) mutex_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() AKS_RELEASE() {
    mutex_->unlock();
    owned_ = false;
  }
  void lock() AKS_ACQUIRE() {
    mutex_->lock();
    owned_ = true;
  }
  [[nodiscard]] bool owns_lock() const { return owned_; }

 private:
  friend class CondVar;
  Mutex* mutex_;
  bool owned_ = true;
};

/// Condition variable bound to aks::Mutex guards. Waits release and
/// re-acquire through the annotated mutex so lockdep sees the hand-off, and
/// report blocking-while-holding-other-locks (the lost-wakeup shape).
///
/// TSA cannot express "temporarily releases the caller's capability", so
/// wait/wait_for carry no annotation; the caller's guard object keeps the
/// capability nominally held across the call, which matches the state on
/// return. Callers must re-check predicates in a loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& guard) {
    Mutex& mutex = *guard.mutex_;
    check::lockdep::on_wait_block(mutex.class_id_);
    check::lockdep::on_release(mutex.class_id_);
    {
      std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
      cv_.wait(native);
      native.release();  // ownership returns to `guard`
    }
    check::lockdep::on_acquire(mutex.class_id_);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock& guard,
                          const std::chrono::duration<Rep, Period>& timeout) {
    Mutex& mutex = *guard.mutex_;
    check::lockdep::on_wait_block(mutex.class_id_);
    check::lockdep::on_release(mutex.class_id_);
    std::cv_status status;
    {
      std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
      status = cv_.wait_for(native, timeout);
      native.release();
    }
    check::lockdep::on_acquire(mutex.class_id_);
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aks
