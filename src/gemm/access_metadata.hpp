// Declarative access metadata for the kernel families.
//
// The symbolic verifier (src/check/symbolic) needs to know, per kernel
// family, the structural facts that govern its memory behaviour: tile
// shape, work-group schedule, whether the entry guard covers the padded
// launch, whether edge tiles clamp their ranges, and how much local memory
// a work-group commits. These facts are properties of the kernel *source*
// (tiled_kernel.hpp, hierarchical_kernel.hpp); this header states them
// once, next to that source, so the verifier consumes a description rather
// than re-deriving it — and so a negative test can hand the verifier a
// deliberately wrong description and watch the corresponding proof fail.
#pragma once

#include <cstddef>

#include "gemm/config.hpp"

namespace aks::gemm {

/// Structural access facts for one configured kernel launch.
struct KernelAccessPattern {
  int row_tile = 1;
  int col_tile = 1;
  int acc_size = 1;
  int wg_rows = 1;
  int wg_cols = 1;

  /// The kernel returns early for items whose tile origin lies outside the
  /// logical output (the `row0 >= M || col0 >= N` guard). Padded launch
  /// items are therefore harmless.
  bool shape_guarded = true;
  /// Edge tiles clamp their row/col ranges to the logical shape (the
  /// min() in accumulate_edge and store); interior tiles prove in-bounds
  /// structurally.
  bool edge_clamped = true;
  /// The K loop clamps its final partial accumulator step (`k_end`).
  bool k_tail_clamped = true;
  /// Whether the kernel reads C before writing it (the tiled family never
  /// does, which is what makes its output tiles race-free by slicing).
  bool reads_output = false;

  /// Local memory the work-group commits, in bytes.
  std::size_t local_memory_bytes = 0;

  [[nodiscard]] int work_group_size() const { return wg_rows * wg_cols; }
};

/// Pattern of TiledGemmKernel / BatchedTiledGemmKernel under `config`.
/// local_memory_bytes uses the same staged-panel formula the config lint
/// charges (check::local_memory_footprint_bytes) so the static layers agree.
[[nodiscard]] KernelAccessPattern tiled_access_pattern(
    const KernelConfig& config);

/// Pattern of basic_hierarchical_gemm<Tile>: a Tile x Tile cooperative
/// work-group staging three Tile^2 float panels in local memory.
[[nodiscard]] KernelAccessPattern hierarchical_access_pattern(int tile);

}  // namespace aks::gemm
