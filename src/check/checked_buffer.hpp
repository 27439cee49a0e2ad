// Shadow-instrumented buffer and accessor for the checked execution mode.
//
// A `CheckedBuffer` pairs every element with an access record (first
// writing work-group, first reading work-group); its `CheckedAccessor`s are
// span-shaped views that update those records on every access and report
// diagnostics to an `AccessMonitor`:
//
//   * out_of_bounds      — an index beyond the accessor's view; the access
//                          is redirected to a sacrificial sink element so
//                          the replay can continue safely past the bug.
//   * tail_unguarded     — any access made by a work-item (or run)
//                          outside the logical global range that has not
//                          consulted NdItem::in_range() first.
//   * write_write_race   — two distinct work-groups wrote one element.
//   * read_write_race    — one work-group read an element another wrote.
//
// Race attribution requires the deterministic replay executor
// (`Queue::set_deterministic_replay(true)`): groups then execute serially
// in canonical order, the instrumentation context identifies the current
// group, and the shadow state needs no synchronisation. The work-items of
// a group run on one thread. A kernel with a work-group entry (the tiled
// GEMMs) interleaves them pass by pass, and the executor refreshes the
// item fields of the context before each item, or each run of adjacent
// items, of each pass; a run lies wholly inside or outside the logical
// range, so a tail run that skips its in_range() check is reported like a
// tail item. Either way intra-group reuse is never a race, mirroring the
// SYCL memory model, where cross-group coherence is the only thing a
// kernel cannot assume.
//
// Mutable accessors model SYCL write accessors: every access through them
// counts as a write (the kernels in this repo never read C).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "syclrt/instrument.hpp"

namespace aks::check {

namespace detail {

/// Per-element shadow record.
struct ElementShadow {
  std::size_t writer = kNoGroup;  ///< First work-group that wrote.
  std::size_t reader = kNoGroup;  ///< First work-group that read.
};

/// Heap-pinned state shared by a buffer and all accessors derived from it
/// (accessors are copied by value into kernels, so they hold a stable
/// pointer rather than references into a movable buffer object).
template <typename V>
struct BufferState {
  std::string label;
  std::vector<V> storage;
  std::vector<ElementShadow> shadow;
  V sink{};  ///< Target of redirected out-of-bounds accesses.
  AccessMonitor* monitor = nullptr;
};

}  // namespace detail

/// Span-shaped recording view over a CheckedBuffer. `T` may be const
/// (read accessor) or non-const (write accessor). Copy is cheap; the
/// originating buffer must outlive every accessor.
template <typename T>
class CheckedAccessor {
  using Value = std::remove_const_t<T>;
  static constexpr bool kIsRead = std::is_const_v<T>;

 public:
  CheckedAccessor(detail::BufferState<Value>* state, std::size_t offset,
                  std::size_t length)
      : state_(state), offset_(offset), length_(length) {}

  [[nodiscard]] std::size_t size() const { return length_; }

  /// Recorded element access; out-of-view indices are reported and
  /// redirected to the buffer's sink element.
  T& operator[](std::size_t i) const {
    auto* ctx = syclrt::instrument::context();
    if (i >= length_) {
      state_->monitor->report(
          {.kind = DiagnosticKind::out_of_bounds,
           .kernel = {},
           .buffer = state_->label,
           .index = offset_ + i,
           .group_a = kNoGroup,
           .group_b = ctx != nullptr ? ctx->flat_group : kNoGroup,
           .message = "access at view index " + std::to_string(i) +
                      " past view of " + std::to_string(length_) +
                      " elements (buffer size " +
                      std::to_string(state_->storage.size()) + ")"});
      return state_->sink;
    }
    const std::size_t global = offset_ + i;
    if (ctx != nullptr) {
      if (!ctx->item_in_logical_range && !ctx->guard_queried) {
        state_->monitor->report(
            {.kind = DiagnosticKind::tail_unguarded,
             .kernel = {},
             .buffer = state_->label,
             .index = global,
             .group_a = kNoGroup,
             .group_b = ctx->flat_group,
             .message = "work-item outside the logical range accessed "
                        "memory without checking in_range()"});
      }
      record(global, ctx->flat_group);
    }
    return state_->storage[global];
  }

  /// Sub-view; out-of-range bounds are reported and clamped so replay can
  /// continue with a valid (possibly empty) view.
  [[nodiscard]] CheckedAccessor subspan(std::size_t offset,
                                        std::size_t count) const {
    if (offset > length_ || count > length_ - offset) {
      auto* ctx = syclrt::instrument::context();
      state_->monitor->report(
          {.kind = DiagnosticKind::out_of_bounds,
           .kernel = {},
           .buffer = state_->label,
           .index = offset_ + std::min(offset, length_),
           .group_a = kNoGroup,
           .group_b = ctx != nullptr ? ctx->flat_group : kNoGroup,
           .message = "subspan(" + std::to_string(offset) + ", " +
                      std::to_string(count) + ") exceeds view of " +
                      std::to_string(length_) + " elements"});
      const std::size_t clamped_offset = std::min(offset, length_);
      return CheckedAccessor(state_, offset_ + clamped_offset,
                             std::min(count, length_ - clamped_offset));
    }
    return CheckedAccessor(state_, offset_ + offset, count);
  }

 private:
  void record(std::size_t global, std::size_t group) const {
    detail::ElementShadow& shadow = state_->shadow[global];
    if constexpr (kIsRead) {
      if (shadow.writer != kNoGroup && shadow.writer != group) {
        state_->monitor->report(
            {.kind = DiagnosticKind::read_write_race,
             .kernel = {},
             .buffer = state_->label,
             .index = global,
             .group_a = shadow.writer,
             .group_b = group,
             .message = "element read by one work-group and written by "
                        "another without synchronisation"});
      }
      if (shadow.reader == kNoGroup) shadow.reader = group;
    } else {
      if (shadow.writer != kNoGroup && shadow.writer != group) {
        state_->monitor->report(
            {.kind = DiagnosticKind::write_write_race,
             .kernel = {},
             .buffer = state_->label,
             .index = global,
             .group_a = shadow.writer,
             .group_b = group,
             .message = "element written by two different work-groups"});
      } else if (shadow.reader != kNoGroup && shadow.reader != group) {
        state_->monitor->report(
            {.kind = DiagnosticKind::read_write_race,
             .kernel = {},
             .buffer = state_->label,
             .index = global,
             .group_a = shadow.reader,
             .group_b = group,
             .message = "element read by one work-group and written by "
                        "another without synchronisation"});
      }
      if (shadow.writer == kNoGroup) shadow.writer = group;
    }
  }

  detail::BufferState<Value>* state_;
  std::size_t offset_;
  std::size_t length_;
};

/// Buffer whose accessors record every access; see the file comment.
template <typename T>
class CheckedBuffer {
 public:
  CheckedBuffer(std::string label, std::size_t count, AccessMonitor& monitor,
                T init = T{})
      : state_(std::make_unique<detail::BufferState<T>>()) {
    state_->label = std::move(label);
    state_->storage.assign(count, init);
    state_->shadow.assign(count, {});
    state_->monitor = &monitor;
  }

  CheckedBuffer(std::string label, std::span<const T> data,
                AccessMonitor& monitor)
      : state_(std::make_unique<detail::BufferState<T>>()) {
    state_->label = std::move(label);
    state_->storage.assign(data.begin(), data.end());
    state_->shadow.assign(data.size(), {});
    state_->monitor = &monitor;
  }

  [[nodiscard]] std::size_t size() const { return state_->storage.size(); }

  /// Uninstrumented host views for filling inputs and reading results.
  [[nodiscard]] std::span<T> host() { return state_->storage; }
  [[nodiscard]] std::span<const T> host() const { return state_->storage; }

  /// Recording accessors handed to kernels.
  [[nodiscard]] CheckedAccessor<const T> read() const {
    return CheckedAccessor<const T>(state_.get(), 0, state_->storage.size());
  }
  [[nodiscard]] CheckedAccessor<T> write() {
    return CheckedAccessor<T>(state_.get(), 0, state_->storage.size());
  }

  /// Forgets all recorded accesses (for reusing a buffer across launches).
  void clear_shadow() { state_->shadow.assign(state_->shadow.size(), {}); }

 private:
  std::unique_ptr<detail::BufferState<T>> state_;
};

}  // namespace aks::check
