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
// several passes over the group's items; each pass is complete before the
// next begins, so the gap between two passes has work-group barrier
// semantics. A `WorkGroup::parallel_for_work_item` pass hands the kernel
// one item at a time. A `WorkGroup::parallel_for_work_item_runs` pass hands
// it one run at a time: a local row of consecutive items along the last
// dimension, cut at the logical edge, which the kernel may compute
// together, as a CPU SYCL device runs a sub-group's items in SIMD lanes.
// Values the passes share live in the entry's scope (one instance per
// group, SYCL's local memory) or in a `PrivateMemory` (one value per item).
// The register-tiled GEMM family uses runs to advance a whole group through
// K one cache-sized chunk at a time.
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

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
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
/// work-items, one full pass per parallel_for_work_item or
/// parallel_for_work_item_runs call.
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
    for_each_row([&](Id<Dims> local) {
      for (std::size_t l = 0; l < local_range_[kLast]; ++l) {
        local[kLast] = l;
        run(fn, local);
      }
    });
  }

  /// Runs fn(first_item, count) once per run of this group: a local row
  /// along the last dimension, cut where it leaves the logical range, so
  /// that each run lies wholly inside or wholly outside that range. The run
  /// is first_item and the count - 1 items after it along the last
  /// dimension. Runs come in parallel_for_work_item's order, and passes are
  /// separated by the same implicit barrier.
  template <typename Fn>
  void parallel_for_work_item_runs(Fn&& fn) const {
    const std::size_t width = local_range_[kLast];
    const std::size_t origin = group_[kLast] * width;
    // Items of a row below local id `inside` are inside the logical range
    // along the last dimension.
    const std::size_t inside =
        logical_global_[kLast] > origin
            ? std::min(width, logical_global_[kLast] - origin)
            : 0;
    for_each_row([&](Id<Dims> local) {
      for (const auto& [first, end] : {std::pair{std::size_t{0}, inside},
                                       std::pair{inside, width}}) {
        if (first == end) continue;
        local[kLast] = first;
        run(fn, local, end - first);
      }
    });
  }

 private:
  static constexpr int kLast = Dims - 1;

  /// Calls fn(local) for each local row of the group in row-major order,
  /// with the last dimension of `local` zero.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    Id<Dims> local;
    if constexpr (Dims == 1) {
      fn(local);
    } else if constexpr (Dims == 2) {
      for (local[0] = 0; local[0] < local_range_[0]; ++local[0]) fn(local);
    } else {
      for (local[0] = 0; local[0] < local_range_[0]; ++local[0])
        for (local[1] = 0; local[1] < local_range_[1]; ++local[1]) fn(local);
    }
  }

  /// Refreshes the instrumentation context (when one is installed) before
  /// handing the item, or the run it starts, to the kernel, so checked
  /// accessors can attribute the accesses and detect unguarded tail items.
  /// A run lies wholly inside or outside the logical range, so its first
  /// item speaks for all of it.
  template <typename Fn, typename... Count>
  void run(Fn& fn, Id<Dims> local, Count... count) const {
    const NdItem<Dims> item(group_, local, local_range_, logical_global_);
    if (auto* ctx = instrument::context()) {
      ctx->item_in_logical_range = item.logical_in_range();
      ctx->guard_queried = false;
    }
    fn(item, count...);
  }

  Id<Dims> group_;
  Range<Dims> local_range_;
  Range<Dims> logical_global_;
};

/// One value per work-item of a group, declared in group scope so it
/// survives from one pass to the next (SYCL's `private_memory`). Values
/// start value-initialised.
template <typename T, int Dims>
class PrivateMemory {
 public:
  explicit PrivateMemory(const WorkGroup<Dims>& group)
      : values_(group.get_local_linear_range()) {}

  /// The values of the run of `count` items that starts at `first` (see
  /// WorkGroup::parallel_for_work_item_runs), in run order: a run is
  /// consecutive along the last dimension, so its values are contiguous.
  std::span<T> operator()(const NdItem<Dims>& first, std::size_t count) {
    std::size_t linear = 0;
    for (int d = 0; d < Dims; ++d)
      linear = linear * first.get_local_range(d) + first.get_local_id(d);
    return std::span<T>(values_).subspan(linear, count);
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
