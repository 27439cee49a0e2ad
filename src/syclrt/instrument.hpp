// Instrumentation context published by the deterministic replay executor.
//
// Checked execution (src/check) needs to attribute every memory access made
// by a kernel to the work-group and work-item that performed it, and to know
// whether that item consulted `NdItem::in_range()` before touching memory.
// The runtime publishes that information through a thread-local pointer: the
// replay executor installs an `ItemContext` for the duration of a
// submission, `WorkGroup::parallel_for_work_item` refreshes the per-item
// fields before each item and `WorkGroup::parallel_for_work_item_runs`
// before each run (a run lies wholly inside or outside the logical range,
// so its items share the fields), and `NdItem::in_range()` flips
// `guard_queried`. Checked accessors read the context at every access.
//
// Outside replay submissions the pointer is null and the hooks cost one
// thread-local load; the parallel executor never installs a context, so
// checked diagnostics are only meaningful under
// `Queue::set_deterministic_replay(true)` (parallel execution would need
// atomic shadow state and would lose reproducible group ordering).
#pragma once

#include <cstddef>

namespace aks::syclrt::instrument {

/// Execution state of the work-item, or run of work-items, currently
/// running on this thread.
struct ItemContext {
  /// Flat index of the executing work-group (row-major over group counts).
  std::size_t flat_group = 0;
  /// True when the item (or run) lies inside the logical (unpadded) global
  /// range.
  bool item_in_logical_range = true;
  /// True once the kernel has called `in_range()` for the current item (or
  /// run).
  bool guard_queried = false;
};

namespace detail {
inline thread_local ItemContext* tl_context = nullptr;
}  // namespace detail

/// The context of the submission executing on this thread, or null when no
/// instrumented (replay) submission is active.
[[nodiscard]] inline ItemContext* context() { return detail::tl_context; }

/// RAII installation of a context for one submission.
class ContextScope {
 public:
  explicit ContextScope(ItemContext& ctx) : prev_(detail::tl_context) {
    detail::tl_context = &ctx;
  }
  ~ContextScope() { detail::tl_context = prev_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ItemContext* prev_;
};

}  // namespace aks::syclrt::instrument
