#include "gemm/access_metadata.hpp"

namespace aks::gemm {

KernelAccessPattern tiled_access_pattern(const KernelConfig& config) {
  KernelAccessPattern pattern;
  pattern.row_tile = config.row_tile;
  pattern.col_tile = config.col_tile;
  pattern.acc_size = config.acc_size;
  pattern.wg_rows = config.wg_rows;
  pattern.wg_cols = config.wg_cols;
  pattern.shape_guarded = true;   // run_group: row0 >= M || col0 >= N
  pattern.edge_clamped = true;    // accumulate_edge: min(row0+RT, M) etc.
  pattern.k_tail_clamped = true;  // accumulate_edge: k_end <= chunk end <= K
  pattern.reads_output = false;   // C is write-only in both paths
  const auto rows = static_cast<std::size_t>(config.wg_rows) *
                    static_cast<std::size_t>(config.row_tile);
  const auto cols = static_cast<std::size_t>(config.wg_cols) *
                    static_cast<std::size_t>(config.col_tile);
  const auto acc = static_cast<std::size_t>(config.acc_size);
  pattern.local_memory_bytes = sizeof(float) * (rows * acc + acc * cols);
  return pattern;
}

}  // namespace aks::gemm
