#include "gemm/registry.hpp"

#include <map>
#include <optional>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "gemm/tiled_kernel.hpp"
#include "trace/trace.hpp"

namespace aks::gemm {

namespace {

using Key = std::tuple<int, int, int>;

template <int RowTile, int ColTile, int AccSize>
syclrt::Event launch_instantiation(syclrt::Queue& queue,
                                   std::span<const float> a,
                                   std::span<const float> b,
                                   std::span<float> c, GemmShape shape,
                                   int wg_rows, int wg_cols) {
  TiledGemmKernel<RowTile, ColTile, AccSize> kernel(a, b, c, shape);
  return queue.parallel_for(
      tiled_launch_range<RowTile, ColTile, 2>(shape, 1, wg_rows, wg_cols),
      kernel);
}

template <int RowTile, int ColTile, int AccSize>
syclrt::Event launch_batched_instantiation(
    syclrt::Queue& queue, std::span<const float> a, std::span<const float> b,
    std::span<float> c, GemmShape shape, std::size_t batch, int wg_rows,
    int wg_cols) {
  BatchedTiledGemmKernel<RowTile, ColTile, AccSize> kernel(a, b, c, shape,
                                                           batch);
  return queue.parallel_for(
      tiled_launch_range<RowTile, ColTile, 3>(shape, batch, wg_rows, wg_cols),
      kernel);
}

using BatchedLauncher = std::function<syclrt::Event(
    syclrt::Queue&, std::span<const float>, std::span<const float>,
    std::span<float>, GemmShape, std::size_t, int, int)>;

template <int RowTile, int ColTile, int AccSize>
void register_one(std::map<Key, KernelLauncher>& table) {
  table.emplace(Key{RowTile, ColTile, AccSize},
                [](syclrt::Queue& queue, std::span<const float> a,
                   std::span<const float> b, std::span<float> c,
                   GemmShape shape, int wg_rows, int wg_cols) {
                  return launch_instantiation<RowTile, ColTile, AccSize>(
                      queue, a, b, c, shape, wg_rows, wg_cols);
                });
}

// Instantiate the full {1,2,4,8}^3 cross product at compile time.
template <int RowTile, int ColTile>
void register_acc(std::map<Key, KernelLauncher>& table) {
  register_one<RowTile, ColTile, 1>(table);
  register_one<RowTile, ColTile, 2>(table);
  register_one<RowTile, ColTile, 4>(table);
  register_one<RowTile, ColTile, 8>(table);
}

template <int RowTile>
void register_col(std::map<Key, KernelLauncher>& table) {
  register_acc<RowTile, 1>(table);
  register_acc<RowTile, 2>(table);
  register_acc<RowTile, 4>(table);
  register_acc<RowTile, 8>(table);
}

const std::map<Key, KernelLauncher>& registry() {
  static const std::map<Key, KernelLauncher> table = [] {
    std::map<Key, KernelLauncher> t;
    register_col<1>(t);
    register_col<2>(t);
    register_col<4>(t);
    register_col<8>(t);
    return t;
  }();
  return table;
}

template <int RowTile, int ColTile, int AccSize>
void register_batched_one(std::map<Key, BatchedLauncher>& table) {
  table.emplace(Key{RowTile, ColTile, AccSize},
                [](syclrt::Queue& queue, std::span<const float> a,
                   std::span<const float> b, std::span<float> c,
                   GemmShape shape, std::size_t batch, int wg_rows,
                   int wg_cols) {
                  return launch_batched_instantiation<RowTile, ColTile,
                                                      AccSize>(
                      queue, a, b, c, shape, batch, wg_rows, wg_cols);
                });
}

template <int RowTile, int ColTile>
void register_batched_acc(std::map<Key, BatchedLauncher>& table) {
  register_batched_one<RowTile, ColTile, 1>(table);
  register_batched_one<RowTile, ColTile, 2>(table);
  register_batched_one<RowTile, ColTile, 4>(table);
  register_batched_one<RowTile, ColTile, 8>(table);
}

template <int RowTile>
void register_batched_col(std::map<Key, BatchedLauncher>& table) {
  register_batched_acc<RowTile, 1>(table);
  register_batched_acc<RowTile, 2>(table);
  register_batched_acc<RowTile, 4>(table);
  register_batched_acc<RowTile, 8>(table);
}

const std::map<Key, BatchedLauncher>& batched_registry() {
  static const std::map<Key, BatchedLauncher> table = [] {
    std::map<Key, BatchedLauncher> t;
    register_batched_col<1>(t);
    register_batched_col<2>(t);
    register_batched_col<4>(t);
    register_batched_col<8>(t);
    return t;
  }();
  return table;
}

}  // namespace

std::size_t registry_size() { return registry().size(); }

const KernelLauncher& find_kernel(int row_tile, int col_tile, int acc_size) {
  const auto it = registry().find(Key{row_tile, col_tile, acc_size});
  AKS_CHECK(it != registry().end(),
            "no compiled kernel for tile " << row_tile << "x" << col_tile
            << " acc " << acc_size);
  return it->second;
}

namespace {

trace::LaunchAnnotation::Info launch_info(const KernelConfig& config,
                                          const GemmShape& shape,
                                          std::size_t batch) {
  trace::LaunchAnnotation::Info info;
  try {
    info.config_index = config_index(config);
  } catch (const common::Error&) {
    // Non-canonical (hand-built) config: no stable index to attach.
    info.config_index = ~std::uint64_t{0};
  }
  info.m = shape.m;
  info.k = shape.k;
  info.n = shape.n;
  info.batch = batch;
  return info;
}

}  // namespace

syclrt::Event launch_gemm(syclrt::Queue& queue, const KernelConfig& config,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c, const GemmShape& shape) {
  AKS_CHECK(shape.m > 0 && shape.k > 0 && shape.n > 0,
            "degenerate GEMM shape " << shape.to_string());
  AKS_CHECK(a.size() == shape.m * shape.k,
            "A has " << a.size() << " elements, shape needs " << shape.m * shape.k);
  AKS_CHECK(b.size() == shape.k * shape.n,
            "B has " << b.size() << " elements, shape needs " << shape.k * shape.n);
  AKS_CHECK(c.size() == shape.m * shape.n,
            "C has " << c.size() << " elements, shape needs " << shape.m * shape.n);
  const auto& launcher =
      find_kernel(config.row_tile, config.col_tile, config.acc_size);
  // The queue's launch span picks the annotation up from thread-local state
  // — this is the layer that knows which selection decision is being run.
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, /*batch=*/1));
  }
  return launcher(queue, a, b, c, shape, config.wg_rows, config.wg_cols);
}

syclrt::Event launch_batched_gemm(syclrt::Queue& queue,
                                  const KernelConfig& config,
                                  std::span<const float> a,
                                  std::span<const float> b,
                                  std::span<float> c, const GemmShape& shape,
                                  std::size_t batch) {
  AKS_CHECK(batch > 0, "batched GEMM needs at least one batch entry");
  AKS_CHECK(shape.m > 0 && shape.k > 0 && shape.n > 0,
            "degenerate GEMM shape " << shape.to_string());
  AKS_CHECK(a.size() == batch * shape.m * shape.k, "batched A size mismatch");
  AKS_CHECK(b.size() == batch * shape.k * shape.n, "batched B size mismatch");
  AKS_CHECK(c.size() == batch * shape.m * shape.n, "batched C size mismatch");
  const auto it = batched_registry().find(
      Key{config.row_tile, config.col_tile, config.acc_size});
  AKS_CHECK(it != batched_registry().end(),
            "no compiled batched kernel for " << config.name());
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, batch));
  }
  return it->second(queue, a, b, c, shape, batch, config.wg_rows,
                    config.wg_cols);
}

}  // namespace aks::gemm
