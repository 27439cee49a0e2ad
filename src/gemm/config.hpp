// The kernel configuration space of the case study.
//
// The SYCL-DNN matrix-multiply kernel exposes three compile-time parameters
// — the two dimensions of the per-work-item output tile and the accumulator
// step along K — each drawn from {1, 2, 4, 8} (64 compiled kernels), plus a
// runtime work-group shape drawn from ten options, for 640 configurations
// total. `enumerate_configs()` produces them in a canonical order that every
// dataset column, pruner and selector in this repo indexes into.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace aks::gemm {

/// One point in the 640-element configuration space.
struct KernelConfig {
  /// Rows of the per-work-item output tile (compile-time in the kernel).
  int row_tile = 1;
  /// Columns of the per-work-item output tile (compile-time).
  int col_tile = 1;
  /// Number of K values accumulated per inner-loop step (compile-time).
  int acc_size = 1;
  /// Work-group shape, rows x cols (runtime parameter).
  int wg_rows = 8;
  int wg_cols = 8;

  [[nodiscard]] int work_group_size() const { return wg_rows * wg_cols; }

  /// Registers the kernel needs per work-item for accumulators and staging
  /// (used by the occupancy model).
  [[nodiscard]] int registers_per_item() const {
    return row_tile * col_tile         // accumulator tile
           + row_tile * acc_size       // staged A values
           + acc_size * col_tile       // staged B values
           + 8;                        // index arithmetic overhead
  }

  /// Stable human-readable name, e.g. "t4x2_a8_wg16x8".
  [[nodiscard]] std::string name() const;

  /// Inverse of name(); throws common::Error on malformed input.
  static KernelConfig parse(const std::string& name);

  [[nodiscard]] bool operator==(const KernelConfig&) const = default;
};

/// The tile/accumulator sizes considered by the case study.
inline constexpr std::array<int, 4> kTileSizes = {1, 2, 4, 8};

/// Number of compiled kernels: one per (row_tile, col_tile, acc_size).
inline constexpr std::size_t kInstantiationCount =
    kTileSizes.size() * kTileSizes.size() * kTileSizes.size();

/// Index of the config's compiled kernel in [0, kInstantiationCount), in
/// the order row_tile (slowest), col_tile, acc_size; the work-group shape
/// is not part of it. Throws common::Error when a tile or accumulator size
/// is not in {1,2,4,8}.
[[nodiscard]] std::size_t instantiation_index(const KernelConfig& config);

/// The ten work-group shapes considered by the case study, as (rows, cols).
[[nodiscard]] const std::array<std::pair<int, int>, 10>& work_group_shapes();

/// All 640 configurations in canonical order. The order is: row_tile
/// (slowest), col_tile, acc_size, work-group shape (fastest), so
/// index = ((rt_i * 4 + ct_i) * 4 + acc_i) * 10 + wg_i.
[[nodiscard]] const std::vector<KernelConfig>& enumerate_configs();

/// Canonical index of a configuration; throws if it is not one of the 640.
[[nodiscard]] std::size_t config_index(const KernelConfig& config);

/// Number of distinct compiled kernels (compile-time parameter combinations)
/// present in a set of configurations — the paper's library-size cost metric.
/// Throws like instantiation_index() for a config outside the family.
[[nodiscard]] std::size_t count_compiled_kernels(
    const std::vector<KernelConfig>& configs);

}  // namespace aks::gemm
