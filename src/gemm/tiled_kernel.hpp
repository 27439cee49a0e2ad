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
// Both kernels run as work-group entries (see syclrt/queue.hpp). A group
// makes one parallel_for_work_item_runs pass per kKChunk values of K and
// keeps each item's accumulator tile in private memory between passes; the
// last pass stores the tiles. The group's items therefore reuse one chunk
// of their shared A rows and B columns while it is in cache; they do not
// each stream all of K alone.
//
// Within a pass the host computes a run of adjacent items together, as a
// CPU SYCL device runs a sub-group's items in SIMD lanes: the run's whole
// tiles are cut into blocks of rows x columns whose accumulators sit in
// 4-float vector registers for the whole chunk. For each k a block loads
// its B row segment once, broadcasts each A value across it, and adds the
// products; AccSize is the K step the block unrolls, and a K remainder runs
// one k at a time. A run with fewer than RowTile rows left (a row edge)
// runs one-row blocks. Only a run's last tile, when it crosses N, takes the
// guarded scalar edge path. What each item computes is unchanged, and so
// are the bits: every output still sums k in ascending order with a
// separate float multiply and add, as gemm::reference_gemm does.
//
// The accessor types are template parameters defaulting to spans so the
// checked execution mode (src/check) can instantiate the very same kernel
// over recording accessors — the analysed code path is the shipped one, not
// a checked re-implementation.
//
// `kTiledInstantiations` at the end of this file is the one list of the 64
// compiled kernels: the shipped launches (registry.cpp) read it over spans,
// the checked ones (src/check) over recording accessors.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {

/// K values a work-group's items advance through together in one pass. A
/// multiple of every AccSize. Of 64, 128, 256, 512 and 1024, 128 made the
/// fastest launches with K > 256 in traced network_forward rounds on a
/// 4-core Xeon with 48 KB of L1d and 2 MB of L2 per core: a shorter chunk
/// pays the per-pass cost more often, a longer one lets the group's A and B
/// panels fall out of cache. Re-checked once runs were computed in blocks:
/// 256 read within noise of 128 (see EXPERIMENTS.md).
inline constexpr std::size_t kKChunk = 128;

namespace detail {

/// Four floats in one SIMD register: the GCC/Clang vector extension, which
/// the compiler lowers to the baseline vector unit (SSE2 on x86-64).
using Float4 = float __attribute__((vector_size(16)));

/// Loads `Lanes` (at most 4) consecutive values of `view` from index `i`
/// into the low lanes of a vector and zeroes the rest.
template <std::size_t Lanes, typename View>
[[gnu::always_inline]] inline Float4 load_lanes(const View& view,
                                                std::size_t i) {
  Float4 v{};
  if constexpr (requires { view.data(); }) {
    // Contiguous memory: one unaligned load.
    std::memcpy(&v, view.data() + i, Lanes * sizeof(float));
  } else {
    // A recording accessor (src/check) sees every element it hands out.
    for (std::size_t l = 0; l < Lanes; ++l) v[l] = view[i + l];
  }
  return v;
}

}  // namespace detail

/// The launch geometry of every tiled-GEMM launch, shipped and checked
/// alike (see kTiledInstantiations): one work-item per RowTile x ColTile
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

  /// Rows of a block over whole tiles, and the widest block's columns: 8
  /// vector accumulators, which leaves the B segment and the broadcast A
  /// value room in 16 vector registers.
  static constexpr std::size_t kBlockRows = std::min<std::size_t>(kRowTile, 4);
  static constexpr std::size_t kBlockFloats = 32;

  /// Runs one work-group of a launch whose last two dimensions index
  /// output tiles (see the file comment). `kernel_of(item)` returns the
  /// kernel, that is the operand views, that the run starting at `item`
  /// computes with, or nothing when the run has no batch entry.
  template <int Dims, typename KernelOf>
  static void run_group(const syclrt::WorkGroup<Dims>& group,
                        const GemmShape& shape, const KernelOf& kernel_of) {
    syclrt::PrivateMemory<Tile, Dims> tiles(group);
    for (std::size_t k0 = 0; k0 < shape.k; k0 += kKChunk) {
      const std::size_t k1 = std::min(k0 + kKChunk, shape.k);
      group.parallel_for_work_item_runs(
          [&](const syclrt::NdItem<Dims>& first, std::size_t count) {
            const std::optional<TiledGemmKernel> kernel = kernel_of(first);
            if (!kernel) return;
            // Runs past the shape (the padded launch) do nothing; a run
            // inside the logical range has every tile origin in the shape.
            const std::size_t row0 = first.get_global_id(Dims - 2) * kRowTile;
            const std::size_t col0 = first.get_global_id(Dims - 1) * kColTile;
            if (row0 >= shape.m || col0 >= shape.n) return;
            const std::span<Tile> run = tiles(first, count);
            kernel->accumulate(row0, col0, k0, k1, run);
            if (k1 != shape.k) return;
            for (std::size_t t = 0; t < run.size(); ++t)
              kernel->store(row0, col0 + t * kColTile, run[t]);
          });
    }
  }

  /// Adds the products for k in [k0, k1) to the tiles of a run whose first
  /// tile is at (row0, col0).
  void accumulate(std::size_t row0, std::size_t col0, std::size_t k0,
                  std::size_t k1, std::span<Tile> run) const {
    // Only the last tile of a run can cross N.
    std::size_t whole = run.size();
    if (col0 + whole * kColTile > shape_.n) --whole;
    if (row0 + kRowTile <= shape_.m) {
      for (std::size_t r = 0; r < kRowTile; r += kBlockRows)
        accumulate_blocks<kBlockRows, kBlockFloats / kBlockRows>(
            row0, r, col0, 0, whole, k0, k1, run);
    } else {
      for (std::size_t r = 0; row0 + r < shape_.m; ++r)
        accumulate_blocks<1, kBlockFloats>(row0, r, col0, 0, whole, k0, k1,
                                           run);
    }
    if (whole < run.size())
      accumulate_edge(row0, col0 + whole * kColTile, k0, k1, run[whole]);
  }

  /// Runs tiles [t, end) of tile rows [r, r + Rows) in blocks W columns
  /// wide while they last, then hands what is left, fewer than W columns
  /// and whole tiles, to blocks of half the width.
  template <std::size_t Rows, std::size_t W>
  void accumulate_blocks(std::size_t row0, std::size_t r, std::size_t col0,
                         std::size_t t, std::size_t end, std::size_t k0,
                         std::size_t k1, std::span<Tile> run) const {
    static_assert(W % kColTile == 0, "a block holds whole tiles");
    constexpr std::size_t kTiles = W / kColTile;
    for (; end - t >= kTiles; t += kTiles)
      accumulate_block<Rows, W>(row0, r, col0, t, k0, k1, run);
    if constexpr (W / 2 >= kColTile)
      accumulate_blocks<Rows, W / 2>(row0, r, col0, t, end, k0, k1, run);
  }

  /// Adds the products for k in [k0, k1) to tile rows [r, r + Rows) of the
  /// W columns that start with the run's tile t. The accumulators are
  /// loaded from the tiles, stay in vector registers for the whole chunk,
  /// and are stored back at its end.
  template <std::size_t Rows, std::size_t W>
  void accumulate_block(std::size_t row0, std::size_t r, std::size_t col0,
                        std::size_t t, std::size_t k0, std::size_t k1,
                        std::span<Tile> run) const {
    constexpr std::size_t kVecs = (W + 3) / 4;
    constexpr std::size_t kLanes = std::min<std::size_t>(W, 4);
    detail::Float4 acc[Rows][kVecs];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Rows; ++i)
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) {
        detail::Float4 lanes{};
#pragma GCC unroll 4
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t c = v * 4 + l;
          lanes[l] = run[t + c / kColTile][r + i][c % kColTile];
        }
        acc[i][v] = lanes;
      }
    const std::size_t row = row0 + r;
    const std::size_t col = col0 + t * kColTile;
    std::size_t k = k0;
    for (; k + kAccSize <= k1; k += kAccSize) {
#pragma GCC unroll 8
      for (std::size_t s = 0; s < kAccSize; ++s)
        block_step<Rows, W>(row, col, k + s, acc);
    }
    for (; k < k1; ++k) block_step<Rows, W>(row, col, k, acc);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Rows; ++i)
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v)
#pragma GCC unroll 4
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t c = v * 4 + l;
          run[t + c / kColTile][r + i][c % kColTile] = acc[i][v][l];
        }
  }

  /// One k of a block whose top-left output is (row, col): acc += a * b
  /// for the B row segment and each row's broadcast A value.
  template <std::size_t Rows, std::size_t W>
  [[gnu::always_inline]] void block_step(
      std::size_t row, std::size_t col, std::size_t k,
      detail::Float4 (&acc)[Rows][(W + 3) / 4]) const {
    constexpr std::size_t kVecs = (W + 3) / 4;
    constexpr std::size_t kLanes = std::min<std::size_t>(W, 4);
    detail::Float4 b[kVecs];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVecs; ++v)
      b[v] = detail::load_lanes<kLanes>(b_, k * shape_.n + col + v * 4);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Rows; ++i) {
      const float a = a_[(row + i) * shape_.k + k];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) acc[i][v] += a * b[v];
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

/// One compiled kernel of the family: its compile-time parameters and its
/// flat and batched launches over accessor types ConstAcc / MutAcc, in a
/// runtime wg_rows x wg_cols work-group.
template <typename ConstAcc, typename MutAcc>
struct TiledInstantiation {
  int row_tile;
  int col_tile;
  int acc_size;
  syclrt::Event (*launch)(syclrt::Queue&, ConstAcc a, ConstAcc b, MutAcc c,
                          const GemmShape&, int wg_rows, int wg_cols);
  syclrt::Event (*launch_batched)(syclrt::Queue&, ConstAcc a, ConstAcc b,
                                  MutAcc c, const GemmShape&,
                                  std::size_t batch, int wg_rows,
                                  int wg_cols);
};

namespace detail {

template <int RowTile, int ColTile, int AccSize, typename ConstAcc,
          typename MutAcc>
constexpr TiledInstantiation<ConstAcc, MutAcc> instantiation() {
  using Flat = TiledGemmKernel<RowTile, ColTile, AccSize, ConstAcc, MutAcc>;
  using Batched =
      BatchedTiledGemmKernel<RowTile, ColTile, AccSize, ConstAcc, MutAcc>;
  return {RowTile, ColTile, AccSize,
          [](syclrt::Queue& queue, ConstAcc a, ConstAcc b, MutAcc c,
             const GemmShape& shape, int wg_rows, int wg_cols) {
            return queue.parallel_for(tiled_launch_range<RowTile, ColTile, 2>(
                                          shape, 1, wg_rows, wg_cols),
                                      Flat(a, b, c, shape));
          },
          [](syclrt::Queue& queue, ConstAcc a, ConstAcc b, MutAcc c,
             const GemmShape& shape, std::size_t batch, int wg_rows,
             int wg_cols) {
            return queue.parallel_for(tiled_launch_range<RowTile, ColTile, 3>(
                                          shape, batch, wg_rows, wg_cols),
                                      Batched(a, b, c, shape, batch));
          }};
}

/// Entry I compiles the kernel whose instantiation_index() is I.
template <typename ConstAcc, typename MutAcc, std::size_t... I>
constexpr auto instantiation_table(std::index_sequence<I...>) {
  constexpr std::size_t n = kTileSizes.size();
  return std::array{instantiation<kTileSizes[I / (n * n)],
                                  kTileSizes[I / n % n], kTileSizes[I % n],
                                  ConstAcc, MutAcc>()...};
}

}  // namespace detail

/// The 64 compiled kernels over accessor types ConstAcc / MutAcc, indexed
/// by gemm::instantiation_index(config).
template <typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
inline constexpr auto kTiledInstantiations =
    detail::instantiation_table<ConstAcc, MutAcc>(
        std::make_index_sequence<kInstantiationCount>{});

/// The table entry that runs `config`; throws common::Error when its tile
/// or accumulator size is not in {1,2,4,8}.
template <typename ConstAcc = std::span<const float>,
          typename MutAcc = std::span<float>>
const TiledInstantiation<ConstAcc, MutAcc>& tiled_instantiation(
    const KernelConfig& config) {
  return kTiledInstantiations<ConstAcc, MutAcc>[instantiation_index(config)];
}

}  // namespace aks::gemm
