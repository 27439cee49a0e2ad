// Execution queue mirroring sycl::queue for the host device.
//
// One submission model, SYCL's ND-range `parallel_for(nd_range, kernel)`.
// Work-groups execute concurrently on the shared thread pool and the
// work-items of a group run on one thread. A per-item kernel,
// `kernel(const NdItem<Dims>&)`, has no barrier between its items. SYCL
// leaves the order of a barrier-free group's items to the implementation,
// so a kernel may instead provide a work-group entry,
// `kernel(const WorkGroup<Dims>&)`, which the executor calls once per
// group. The entry sees the launch's unpadded logical range and may make
// several `WorkGroup::parallel_for_work_item` passes; each is a full pass
// over the group's items, so the gap between two passes has work-group
// barrier semantics. Values the passes share live in the entry's scope
// (one instance per group, SYCL's local memory) or in a `PrivateMemory`
// (one value per item). The register-tiled GEMM family uses this to
// advance a whole group through K one cache-sized chunk at a time.
//
// Submissions are synchronous: the call returns once every work-group has
// finished, and returns an Event carrying the measured wall time. A SYCL
// queue is asynchronous, but the libraries in this repo always wait before
// reading results, so a synchronous queue preserves observable behaviour
// while keeping ownership simple.
//
// Submissions may be made from any thread, including a worker of the very
// pool the queue dispatches to (e.g. a kernel launched from inside a pooled
// benchmark loop, or from a serve::SelectionService warm-up running on a
// nested task). Work-group dispatch goes through the pool's reentrancy-safe
// parallel_for: the submitting thread claims and executes group chunks
// itself and help-drains the queue while stragglers finish, so nested
// launches cannot deadlock (see common/thread_pool.hpp).
#pragma once

#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "faults/injector.hpp"
#include "syclrt/device.hpp"
#include "syclrt/instrument.hpp"
#include "syclrt/nd_item.hpp"
#include "syclrt/range.hpp"
#include "trace/trace.hpp"

namespace aks::syclrt {

namespace detail {
/// Out-of-line trace helpers so the submission templates stay small: arm
/// attaches the launch dimensions plus the installed trace::LaunchAnnotation
/// (config index, shape, predicted time) to the span's begin event; finish
/// attaches the measured wall time (and the prediction for side-by-side
/// comparison) to its end event. Call only when trace::enabled().
void arm_launch_span(trace::Span& span, const char* name, std::size_t groups,
                     std::size_t items);
void finish_launch_span(trace::Span& span, double elapsed_seconds);
}  // namespace detail

/// Completion record for a submission.
struct Event {
  /// Wall-clock execution time of the whole submission, in seconds.
  double elapsed_seconds = 0.0;
  /// Number of work-groups launched.
  std::size_t group_count = 0;
  /// Number of work-items launched (after padding to whole groups).
  std::size_t item_count = 0;
};

/// Handle passed to a kernel's work-group entry; iterates the group's
/// work-items, one full pass per parallel_for_work_item call.
template <int Dims>
class WorkGroup {
 public:
  WorkGroup(Id<Dims> group, Range<Dims> local_range,
            Range<Dims> logical_global)
      : group_(group), local_range_(local_range),
        logical_global_(logical_global) {}

  [[nodiscard]] std::size_t get_group(int d) const { return group_[d]; }
  [[nodiscard]] std::size_t get_local_range(int d) const {
    return local_range_[d];
  }
  [[nodiscard]] std::size_t get_local_linear_range() const {
    return local_range_.size();
  }

  /// Runs fn(item) for every work-item of this group. Consecutive calls are
  /// separated by an implicit work-group barrier (sequential execution).
  template <typename Fn>
  void parallel_for_work_item(Fn&& fn) const {
    if constexpr (Dims == 1) {
      for (std::size_t l0 = 0; l0 < local_range_[0]; ++l0)
        run_item(fn, NdItem<1>(group_, Id<1>(l0), local_range_,
                               logical_global_));
    } else if constexpr (Dims == 2) {
      for (std::size_t l0 = 0; l0 < local_range_[0]; ++l0)
        for (std::size_t l1 = 0; l1 < local_range_[1]; ++l1)
          run_item(fn, NdItem<2>(group_, Id<2>(l0, l1), local_range_,
                                 logical_global_));
    } else {
      for (std::size_t l0 = 0; l0 < local_range_[0]; ++l0)
        for (std::size_t l1 = 0; l1 < local_range_[1]; ++l1)
          for (std::size_t l2 = 0; l2 < local_range_[2]; ++l2)
            run_item(fn, NdItem<3>(group_, Id<3>(l0, l1, l2), local_range_,
                                   logical_global_));
    }
  }

 private:
  /// Refreshes the instrumentation context (when one is installed) before
  /// handing the item to the kernel, so checked accessors can attribute the
  /// access and detect unguarded tail items.
  template <typename Fn>
  void run_item(Fn& fn, NdItem<Dims> item) const {
    if (auto* ctx = instrument::context()) {
      ctx->item_in_logical_range = item.logical_in_range();
      ctx->guard_queried = false;
    }
    fn(item);
  }

  Id<Dims> group_;
  Range<Dims> local_range_;
  Range<Dims> logical_global_;
};

/// One value per work-item of a group, declared in group scope so it
/// survives from one parallel_for_work_item pass to the next (SYCL's
/// `private_memory`). Values start value-initialised.
template <typename T, int Dims>
class PrivateMemory {
 public:
  explicit PrivateMemory(const WorkGroup<Dims>& group)
      : values_(group.get_local_linear_range()) {}

  T& operator()(const NdItem<Dims>& item) {
    std::size_t linear = 0;
    for (int d = 0; d < Dims; ++d)
      linear = linear * item.get_local_range(d) + item.get_local_id(d);
    return values_[linear];
  }

 private:
  std::vector<T> values_;
};

/// Running profiling totals of a queue (cleared with reset_profile()).
struct QueueProfile {
  std::size_t submissions = 0;
  std::size_t groups_launched = 0;
  std::size_t items_launched = 0;
  double total_seconds = 0.0;
};

class Queue {
 public:
  /// Uses the process-global thread pool when `pool` is null.
  explicit Queue(Device device = Device::host(),
                 common::ThreadPool* pool = nullptr);

  [[nodiscard]] const Device& device() const { return device_; }

  /// Accumulated profiling data across all submissions so far.
  [[nodiscard]] const QueueProfile& profile() const { return profile_; }
  void reset_profile() { profile_ = {}; }

  /// Deterministic replay: work-groups execute sequentially in canonical
  /// flat order on the submitting thread, with an instrumentation context
  /// installed (see instrument.hpp). This is the execution mode required by
  /// checked buffers/accessors — race attribution and reproducible reports
  /// rely on the serial group order. Timings remain valid but measure
  /// serial execution; do not feed them to the dataset.
  void set_deterministic_replay(bool on) { replay_ = on; }
  [[nodiscard]] bool deterministic_replay() const { return replay_; }

  /// Flat ND-range submission; see file comment for the execution contract.
  template <int Dims, typename Kernel>
  Event parallel_for(NdRange<Dims> range, Kernel&& kernel) {
    validate(range);
    // Fault-injection hook: inside an armed measurement scope this may
    // throw LaunchFailure / DeadlineExceeded before any work is dispatched
    // (see src/faults). A no-op everywhere else.
    faults::maybe_inject_launch_fault();
    const Range<Dims> groups = range.group_count();
    const Range<Dims> local = range.local();
    const Range<Dims> logical = range.global();
    trace::Span span;
    if (trace::enabled()) {
      detail::arm_launch_span(span, "queue.parallel_for", groups.size(),
                              range.padded_global().size());
    }
    common::Timer timer;
    for_each_group(groups, [&](Id<Dims> group) {
      const WorkGroup<Dims> work_group(group, local, logical);
      if constexpr (std::is_invocable_v<Kernel&, const WorkGroup<Dims>&>) {
        kernel(work_group);
      } else {
        work_group.parallel_for_work_item(
            [&](const NdItem<Dims>& item) { kernel(item); });
      }
    });
    Event event;
    event.elapsed_seconds = timer.elapsed_seconds();
    event.group_count = groups.size();
    event.item_count = range.padded_global().size();
    if (span.armed()) detail::finish_launch_span(span, event.elapsed_seconds);
    record(event);
    return event;
  }

 private:
  void record(const Event& event) {
    ++profile_.submissions;
    profile_.groups_launched += event.group_count;
    profile_.items_launched += event.item_count;
    profile_.total_seconds += event.elapsed_seconds;
  }

  template <int Dims>
  void validate(const NdRange<Dims>& range) const {
    AKS_CHECK(range.local().size() <= device_.max_work_group_size,
              "work-group size " << range.local().size()
              << " exceeds device limit " << device_.max_work_group_size);
  }

  /// Dispatches group indices across the pool (groups are independent), or
  /// serially in flat order under deterministic replay.
  template <int Dims, typename Fn>
  void for_each_group(Range<Dims> groups, Fn&& fn) {
    const std::size_t total = groups.size();
    const auto decode = [&groups](std::size_t flat) {
      Id<Dims> group;
      std::size_t rem = flat;
      for (int d = Dims - 1; d >= 0; --d) {
        group[d] = rem % groups[d];
        rem /= groups[d];
      }
      return group;
    };
    if (replay_) {
      instrument::ItemContext ctx;
      const instrument::ContextScope scope(ctx);
      for (std::size_t flat = 0; flat < total; ++flat) {
        ctx.flat_group = flat;
        fn(decode(flat));
      }
      return;
    }
    pool_->parallel_for(total,
                        [&](std::size_t flat) { fn(decode(flat)); });
  }

  Device device_;
  common::ThreadPool* pool_;
  QueueProfile profile_;
  bool replay_ = false;
};

}  // namespace aks::syclrt
