#include "check/symbolic/access_summary.hpp"

#include <algorithm>

namespace aks::check::symbolic {

std::pair<std::int64_t, std::int64_t> Extent::eval(const Point& point) const {
  const std::int64_t b = begin.eval(point);
  std::int64_t e = b;  // empty candidate list = empty range
  bool first = true;
  for (const AffineExpr& cand : end) {
    const std::int64_t v = cand.eval(point);
    e = first ? v : std::min(e, v);
    first = false;
  }
  return {b, e};
}

const BufferModel* AccessSummary::find_buffer(const std::string& name) const {
  for (const auto& buffer : buffers) {
    if (buffer.name == name) return &buffer;
  }
  return nullptr;
}

AccessSummary summarize_tiled_gemm(const gemm::KernelAccessPattern& pattern) {
  AccessSummary s;
  s.kernel = "TiledGemmKernel";
  s.schedule = {
      {.origin = Sym::row0,
       .extent = sym_m(),
       .pitch = pattern.row_tile,
       .wg = pattern.wg_rows,
       .guarded = pattern.shape_guarded},
      {.origin = Sym::col0,
       .extent = sym_n(),
       .pitch = pattern.col_tile,
       .wg = pattern.wg_cols,
       .guarded = pattern.shape_guarded},
  };
  s.buffers = {
      {.name = "A", .rows = sym_m(), .cols = sym_k()},
      {.name = "B", .rows = sym_k(), .cols = sym_n()},
      {.name = "C", .rows = sym_m(), .cols = sym_n()},
  };

  // Row range of the item's tile: [Row0, Row0+RT), clamped to M by the edge
  // path's min(); the interior path's precondition Row0+RT <= M makes the
  // clamped form the exact union of both paths.
  Extent tile_rows = Extent::range(sym_row0(), sym_row0() + pattern.row_tile);
  if (pattern.edge_clamped) tile_rows.end.push_back(sym_m());
  Extent tile_cols = Extent::range(sym_col0(), sym_col0() + pattern.col_tile);
  if (pattern.edge_clamped) tile_cols.end.push_back(sym_n());

  // K range of the staging loads: [0, K) when the final accumulator step is
  // clamped; an unclamped AccSize step overruns to at most K + AS - 2.
  const AffineExpr k_end = pattern.k_tail_clamped
                               ? sym_k()
                               : sym_k() + (pattern.acc_size - 1);
  const Extent k_span = Extent::range(AffineExpr::constant(0), k_end);

  s.regions = {
      {.buffer = "A", .is_write = false, .rows = tile_rows, .cols = k_span,
       .preconditions = {}},
      {.buffer = "B", .is_write = false, .rows = k_span, .cols = tile_cols,
       .preconditions = {}},
      {.buffer = "C", .is_write = true, .rows = tile_rows, .cols = tile_cols,
       .preconditions = {}},
  };
  if (pattern.reads_output) {
    s.regions.push_back(
        {.buffer = "C", .is_write = false, .rows = tile_rows,
         .cols = tile_cols, .preconditions = {}});
  }

  s.local_memory_bytes = pattern.local_memory_bytes;
  s.work_group_size = pattern.work_group_size();
  // A staging loads acc_size-wide K segments; B staging and the C store
  // address col_tile contiguous columns.
  s.staged_vector_widths = {pattern.acc_size, pattern.col_tile};
  return s;
}

AccessSummary summarize_batched_tiled_gemm(
    const gemm::KernelAccessPattern& pattern) {
  AccessSummary s = summarize_tiled_gemm(pattern);
  s.kernel = "BatchedTiledGemmKernel";
  s.batched = true;
  // Each batch entry computes on an exact subspan partition of the packed
  // buffers; all regions are slice-relative.
  for (auto& buffer : s.buffers) buffer.batch_sliced = true;
  return s;
}

}  // namespace aks::check::symbolic
