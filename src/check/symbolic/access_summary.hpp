// Closed-form access summaries of the tiled GEMM kernel family.
//
// An `AccessSummary` describes, per configured launch, every global-memory
// region a work-item touches as affine index ranges symbolic in the GEMM
// shape (M, K, N), the batch count, and the item's tile origins — together
// with the work-group schedule that assigns those origins. The summaries
// are generated from `gemm::KernelAccessPattern` (declarative facts stated
// next to the kernel source), so the verifier reasons about the shipped
// kernels' actual guard/clamp structure, for *all* shapes satisfying the
// preconditions, not per replayed shape.
//
// Modelling decisions that keep everything affine (and hence decidable):
//
//   * Buffers are two-dimensional (rows x cols). A flat index r*stride + c
//     is in bounds iff 0 <= r < rows and 0 <= c < cols with cols == stride,
//     so splitting the dimensions avoids the non-affine products (M*K)
//     that flat sizes would need.
//   * A range end that the kernel clamps (min(Row0+RT, M)) is a *list* of
//     affine candidates with `end = min(list)` semantics: proving any one
//     candidate below a bound proves the minimum below it.
//   * Batched launches slice each buffer per batch entry with subspan, an
//     exact partition by construction; regions are slice-relative and the
//     partition is recorded as a structural `batch_sliced` fact instead of
//     bilinear offset arithmetic.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/symbolic/affine.hpp"
#include "gemm/access_metadata.hpp"

namespace aks::check::symbolic {

/// Half-open affine range [begin, min(end list)). An empty end list means
/// an empty range (accesses nothing).
struct Extent {
  AffineExpr begin;
  std::vector<AffineExpr> end;

  [[nodiscard]] static Extent empty() { return {}; }
  [[nodiscard]] static Extent range(AffineExpr b, AffineExpr e) {
    return {.begin = std::move(b), .end = {std::move(e)}};
  }
  /// Concrete [begin, end) at `point`; end = min over candidates.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> eval(
      const Point& point) const;
};

/// One logical buffer of the launch, rows x cols of floats. `cols` doubles
/// as the row stride, which is exactly how the kernels index.
struct BufferModel {
  std::string name;  ///< "A", "B" or "C" — matches replay diagnostics.
  AffineExpr rows;
  AffineExpr cols;
  /// Batched launches partition the buffer per batch entry via subspan;
  /// regions are then slice-relative and entries cannot alias.
  bool batch_sliced = false;
};

/// A rectangular per-work-item access to one buffer.
struct AccessRegion {
  std::string buffer;
  bool is_write = false;
  Extent rows;
  Extent cols;
  /// The region is only touched where every expression is >= 0. The
  /// verifier folds these into the shape domain when they isolate a single
  /// symbol and keeps them for concrete evaluation otherwise.
  std::vector<AffineExpr> preconditions;
};

/// One dimension of the tile schedule: the launch assigns `origin` values
/// that are multiples of `pitch`, covering [0, extent) with `wg` tiles per
/// work-group (launches are padded to whole groups).
struct ScheduleDim {
  Sym origin = Sym::row0;
  AffineExpr extent;
  int pitch = 1;
  int wg = 1;
  /// The kernel returns early when origin >= extent, so padded items are
  /// silent. Unguarded schedules let origins run to the padded launch edge.
  bool guarded = true;
};

struct AccessSummary {
  std::string kernel;
  /// Row dimension then column dimension of the 2-D tile schedule.
  std::vector<ScheduleDim> schedule;
  /// Adds BatchIdx in [0, Batch) as an outer guarded dimension.
  bool batched = false;
  std::vector<BufferModel> buffers;
  std::vector<AccessRegion> regions;

  /// Capacity facts checked per DeviceSpec (verifier.hpp).
  std::size_t local_memory_bytes = 0;
  int work_group_size = 1;
  /// Staged access widths that must tile into the device's native vector.
  std::vector<int> staged_vector_widths;

  [[nodiscard]] const BufferModel* find_buffer(const std::string& name) const;
};

/// Summary of TiledGemmKernel<RT, CT, AS> under `pattern`'s schedule.
[[nodiscard]] AccessSummary summarize_tiled_gemm(
    const gemm::KernelAccessPattern& pattern);

/// Summary of BatchedTiledGemmKernel: the tiled summary plus the guarded
/// batch dimension and per-entry buffer slicing.
[[nodiscard]] AccessSummary summarize_batched_tiled_gemm(
    const gemm::KernelAccessPattern& pattern);

}  // namespace aks::check::symbolic
