// The register-tiled GEMM kernel family, modelled on SYCL-DNN's matmul.
//
// Each work-item computes a RowTile x ColTile tile of C, stepping AccSize
// values along K per iteration. RowTile, ColTile and AccSize are template
// parameters — exactly the compile-time specialisation scheme the paper
// describes ("C++ templates are used throughout SYCL-DNN to provide
// specializations for ... tile sizes and other constants") — so each of the
// 64 combinations is a separately compiled kernel. The work-group shape is
// a runtime launch parameter and needs no extra instantiations.
//
// Interior work-items (whole tiles, whole accumulator steps) run a fully
// unrolled fast path over fixed-size register arrays; edge items fall back
// to a guarded path. This mirrors how the real kernels trade register
// pressure against unrolling, which is what gives each instantiation its
// distinct performance character on a GPU.
//
// Both kernels run as work-group entries (see syclrt/queue.hpp). A group
// makes one parallel_for_work_item pass per kKChunk values of K and keeps
// each item's accumulator tile in private memory between passes; the last
// pass stores the tiles. The group's items therefore reuse one chunk of
// their shared A rows and B columns while it is in cache; they do not each
// stream all of K alone. What each item computes is unchanged, and so are
// the bits: a chunk holds whole accumulator steps, so every output still
// sums k in ascending order in float, as gemm::reference_gemm does.
//
// The accessor types are template parameters defaulting to spans so the
// checked execution mode (src/check) can instantiate the very same kernel
// over recording accessors — the analysed code path is the shipped one, not
// a checked re-implementation.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "common/error.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {

/// K values a work-group's items advance through together in one pass. A
/// multiple of every AccSize. Of 64, 128, 256, 512 and 1024, 128 made the
/// fastest launches with K > 256 in traced network_forward rounds on a
/// 4-core Xeon with 48 KB of L1d and 2 MB of L2 per core: a shorter chunk
/// pays the per-pass cost of each item more often, a longer one lets the
/// group's A and B panels fall out of cache.
inline constexpr std::size_t kKChunk = 128;

/// The launch geometry of every tiled-GEMM launch, shipped (registry.cpp)
/// and checked (src/check) alike: one work-item per RowTile x ColTile
/// output tile, in wg_rows x wg_cols work-groups that the executor pads to
/// whole groups (the SYCL-DNN launch convention; the kernels guard). A flat
/// launch (Dims 2) has batch 1. A batched launch (Dims 3) leads with the
/// batch dimension at a local extent of 1, so one group covers one batch
/// entry's tile block.
template <int RowTile, int ColTile, int Dims>
syclrt::NdRange<Dims> tiled_launch_range(const GemmShape& shape,
                                         std::size_t batch, int wg_rows,
                                         int wg_cols) {
  static_assert(Dims == 2 || Dims == 3);
  const std::size_t tiles_r =
      (shape.m + RowTile - 1) / static_cast<std::size_t>(RowTile);
  const std::size_t tiles_c =
      (shape.n + ColTile - 1) / static_cast<std::size_t>(ColTile);
  const auto local_r = static_cast<std::size_t>(wg_rows);
  const auto local_c = static_cast<std::size_t>(wg_cols);
  if constexpr (Dims == 2) {
    AKS_CHECK(batch == 1, "a flat tiled launch has batch 1, not " << batch);
    return {syclrt::Range<2>(tiles_r, tiles_c),
            syclrt::Range<2>(local_r, local_c)};
  } else {
    return {syclrt::Range<3>(batch, tiles_r, tiles_c),
            syclrt::Range<3>(std::size_t{1}, local_r, local_c)};
  }
}

template <int RowTile, int ColTile, int AccSize, typename ConstAcc,
          typename MutAcc>
class BatchedTiledGemmKernel;

template <int RowTile, int ColTile, int AccSize,
          typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
class TiledGemmKernel {
  static_assert(RowTile >= 1 && ColTile >= 1 && AccSize >= 1);
  static_assert(kKChunk % AccSize == 0,
                "a K chunk must hold whole accumulator steps");

 public:
  TiledGemmKernel(ConstAcc a, ConstAcc b, MutAcc c, GemmShape shape)
      : a_(a), b_(b), c_(c), shape_(shape) {}

  /// Work-group entry: work-item (r, c) of the launch owns output tile
  /// (r, c).
  void operator()(const syclrt::WorkGroup<2>& group) const {
    run_group(group, shape_, [this](const syclrt::NdItem<2>&) {
      return std::optional(*this);
    });
  }

 private:
  friend class BatchedTiledGemmKernel<RowTile, ColTile, AccSize, ConstAcc,
                                      MutAcc>;

  static constexpr std::size_t kRowTile = RowTile;
  static constexpr std::size_t kColTile = ColTile;
  static constexpr std::size_t kAccSize = AccSize;

  /// One work-item's accumulator tile, kept across the group's K passes.
  using Tile = std::array<std::array<float, kColTile>, kRowTile>;

  /// Runs one work-group of a launch whose last two dimensions index
  /// output tiles (see the file comment). `kernel_of(item)` returns the
  /// kernel, that is the operand views, that the item computes with, or
  /// nothing when the item has no batch entry.
  template <int Dims, typename KernelOf>
  static void run_group(const syclrt::WorkGroup<Dims>& group,
                        const GemmShape& shape, const KernelOf& kernel_of) {
    syclrt::PrivateMemory<Tile, Dims> tiles(group);
    for (std::size_t k0 = 0; k0 < shape.k; k0 += kKChunk) {
      const std::size_t k1 = std::min(k0 + kKChunk, shape.k);
      group.parallel_for_work_item([&](const syclrt::NdItem<Dims>& item) {
        const std::optional<TiledGemmKernel> kernel = kernel_of(item);
        if (!kernel) return;
        // Items past the shape (the padded launch) do nothing.
        const std::size_t row0 = item.get_global_id(Dims - 2) * kRowTile;
        const std::size_t col0 = item.get_global_id(Dims - 1) * kColTile;
        if (row0 >= shape.m || col0 >= shape.n) return;
        kernel->accumulate(row0, col0, k0, k1, tiles(item));
        if (k1 == shape.k) kernel->store(row0, col0, tiles(item));
      });
    }
  }

  /// Adds the products for k in [k0, k1) to the tile at (row0, col0).
  void accumulate(std::size_t row0, std::size_t col0, std::size_t k0,
                  std::size_t k1, Tile& tile) const {
    const bool interior = row0 + kRowTile <= shape_.m &&
                          col0 + kColTile <= shape_.n &&
                          shape_.k % kAccSize == 0;
    if (interior) {
      accumulate_interior(row0, col0, k0, k1, tile);
    } else {
      accumulate_edge(row0, col0, k0, k1, tile);
    }
  }

  void accumulate_interior(std::size_t row0, std::size_t col0, std::size_t k0,
                           std::size_t k1, Tile& tile) const {
    for (std::size_t k = k0; k < k1; k += kAccSize) {
      // Stage operands in registers, as the GPU kernel does.
      float a_block[kRowTile][kAccSize];
      for (int r = 0; r < RowTile; ++r)
        for (int s = 0; s < AccSize; ++s)
          a_block[r][s] = a_[(row0 + static_cast<std::size_t>(r)) * shape_.k +
                             k + static_cast<std::size_t>(s)];
      float b_block[kAccSize][kColTile];
      for (int s = 0; s < AccSize; ++s)
        for (int c = 0; c < ColTile; ++c)
          b_block[s][c] = b_[(k + static_cast<std::size_t>(s)) * shape_.n +
                             col0 + static_cast<std::size_t>(c)];
      // One running sum per output: a local the compiler keeps in a
      // register, which it will not do for the tile's own elements.
      for (std::size_t r = 0; r < kRowTile; ++r)
        for (std::size_t c = 0; c < kColTile; ++c) {
          float sum = tile[r][c];
          for (std::size_t s = 0; s < kAccSize; ++s)
            sum += a_block[r][s] * b_block[s][c];
          tile[r][c] = sum;
        }
    }
  }

  // Kept out of line: inlined into the pass, this loop shares registers
  // with the pass's state, and launches made mostly of edge tiles (K not a
  // multiple of AccSize) ran up to twice as slow.
  [[gnu::noinline]] void accumulate_edge(std::size_t row0, std::size_t col0,
                                         std::size_t k0, std::size_t k1,
                                         Tile& tile) const {
    const std::size_t row_end = std::min(row0 + kRowTile, shape_.m);
    const std::size_t col_end = std::min(col0 + kColTile, shape_.n);
    for (std::size_t k = k0; k < k1; k += kAccSize) {
      const std::size_t k_end = std::min(k + kAccSize, k1);
      for (std::size_t kk = k; kk < k_end; ++kk) {
        for (std::size_t r = row0; r < row_end; ++r) {
          const float av = a_[r * shape_.k + kk];
          for (std::size_t c = col0; c < col_end; ++c) {
            tile[r - row0][c - col0] += av * b_[kk * shape_.n + c];
          }
        }
      }
    }
  }

  /// Writes the in-shape part of the tile at (row0, col0) to C.
  void store(std::size_t row0, std::size_t col0, const Tile& tile) const {
    if (row0 + kRowTile <= shape_.m && col0 + kColTile <= shape_.n) {
      // Fixed trip counts, so the compiler unrolls the copy rather than
      // calling memcpy once per row.
      for (std::size_t r = 0; r < kRowTile; ++r)
        for (std::size_t c = 0; c < kColTile; ++c)
          c_[(row0 + r) * shape_.n + col0 + c] = tile[r][c];
      return;
    }
    const std::size_t row_end = std::min(row0 + kRowTile, shape_.m);
    const std::size_t col_end = std::min(col0 + kColTile, shape_.n);
    for (std::size_t r = row0; r < row_end; ++r)
      for (std::size_t c = col0; c < col_end; ++c)
        c_[r * shape_.n + c] = tile[r - row0][c - col0];
  }

  ConstAcc a_;
  ConstAcc b_;
  MutAcc c_;
  GemmShape shape_;
};

/// Batched variant: `batch` independent multiplies of identical shape, with
/// A/B/C packed contiguously per batch entry, executed as one 3-D launch
/// (batch x tile rows x tile cols). This is how the sixteen Winograd
/// multiplies ship as a single kernel instead of sixteen launches.
template <int RowTile, int ColTile, int AccSize,
          typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
class BatchedTiledGemmKernel {
  using Tiled = TiledGemmKernel<RowTile, ColTile, AccSize, ConstAcc, MutAcc>;

 public:
  BatchedTiledGemmKernel(ConstAcc a, ConstAcc b, MutAcc c, GemmShape shape,
                         std::size_t batch)
      : a_(a), b_(b), c_(c), shape_(shape), batch_(batch) {}

  /// Work-group entry: work-item (bi, r, c) owns output tile (r, c) of
  /// batch entry bi.
  void operator()(const syclrt::WorkGroup<3>& group) const {
    Tiled::run_group(
        group, shape_,
        [this](const syclrt::NdItem<3>& item) -> std::optional<Tiled> {
          const std::size_t bi = item.get_global_id(0);
          if (bi >= batch_) return std::nullopt;
          const std::size_t a_stride = shape_.m * shape_.k;
          const std::size_t b_stride = shape_.k * shape_.n;
          const std::size_t c_stride = shape_.m * shape_.n;
          return Tiled(a_.subspan(bi * a_stride, a_stride),
                       b_.subspan(bi * b_stride, b_stride),
                       c_.subspan(bi * c_stride, c_stride), shape_);
        });
  }

 private:
  ConstAcc a_;
  ConstAcc b_;
  MutAcc c_;
  GemmShape shape_;
  std::size_t batch_;
};

}  // namespace aks::gemm
