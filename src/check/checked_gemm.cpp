#include "check/checked_gemm.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "check/checked_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemm/hierarchical_kernel.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_kernel.hpp"
#include "syclrt/queue.hpp"

namespace aks::check {

namespace {

using ReadAcc = CheckedAccessor<const float>;
using WriteAcc = CheckedAccessor<float>;
using Key = std::tuple<int, int, int>;

/// Numerical tolerance against the scalar reference (operands in [-1, 1],
/// K bounded by the corpus; pure float summation-order error).
constexpr double kTolerance = 1e-3;

using CheckedLauncher = syclrt::Event (*)(syclrt::Queue&, ReadAcc, ReadAcc,
                                          WriteAcc, gemm::GemmShape, int, int);
using CheckedBatchedLauncher = syclrt::Event (*)(syclrt::Queue&, ReadAcc,
                                                 ReadAcc, WriteAcc,
                                                 gemm::GemmShape, std::size_t,
                                                 int, int);

template <int RowTile, int ColTile, int AccSize>
syclrt::Event launch_checked(syclrt::Queue& queue, ReadAcc a, ReadAcc b,
                             WriteAcc c, gemm::GemmShape shape, int wg_rows,
                             int wg_cols) {
  const gemm::TiledGemmKernel<RowTile, ColTile, AccSize, ReadAcc, WriteAcc>
      kernel(a, b, c, shape);
  return queue.parallel_for(gemm::tiled_launch_range<RowTile, ColTile, 2>(
                                shape, 1, wg_rows, wg_cols),
                            kernel);
}

template <int RowTile, int ColTile, int AccSize>
syclrt::Event launch_checked_batched(syclrt::Queue& queue, ReadAcc a,
                                     ReadAcc b, WriteAcc c,
                                     gemm::GemmShape shape, std::size_t batch,
                                     int wg_rows, int wg_cols) {
  const gemm::BatchedTiledGemmKernel<RowTile, ColTile, AccSize, ReadAcc,
                                     WriteAcc>
      kernel(a, b, c, shape, batch);
  return queue.parallel_for(gemm::tiled_launch_range<RowTile, ColTile, 3>(
                                shape, batch, wg_rows, wg_cols),
                            kernel);
}

struct CheckedEntry {
  CheckedLauncher flat;
  CheckedBatchedLauncher batched;
};

template <int RowTile, int ColTile, int AccSize>
void register_one(std::map<Key, CheckedEntry>& table) {
  table.emplace(Key{RowTile, ColTile, AccSize},
                CheckedEntry{&launch_checked<RowTile, ColTile, AccSize>,
                             &launch_checked_batched<RowTile, ColTile,
                                                     AccSize>});
}

template <int RowTile, int ColTile>
void register_acc(std::map<Key, CheckedEntry>& table) {
  register_one<RowTile, ColTile, 1>(table);
  register_one<RowTile, ColTile, 2>(table);
  register_one<RowTile, ColTile, 4>(table);
  register_one<RowTile, ColTile, 8>(table);
}

template <int RowTile>
void register_col(std::map<Key, CheckedEntry>& table) {
  register_acc<RowTile, 1>(table);
  register_acc<RowTile, 2>(table);
  register_acc<RowTile, 4>(table);
  register_acc<RowTile, 8>(table);
}

/// The 64 compiled instantiations over checked accessors (mirrors the
/// shipping registry's cross product).
const std::map<Key, CheckedEntry>& checked_registry() {
  static const std::map<Key, CheckedEntry> table = [] {
    std::map<Key, CheckedEntry> t;
    register_col<1>(t);
    register_col<2>(t);
    register_col<4>(t);
    register_col<8>(t);
    return t;
  }();
  return table;
}

const CheckedEntry& find_checked(const gemm::KernelConfig& config) {
  const auto it = checked_registry().find(
      Key{config.row_tile, config.col_tile, config.acc_size});
  AKS_CHECK(it != checked_registry().end(),
            "no checked kernel for " << config.name());
  return it->second;
}

/// Deterministic operand seed from the launch parameters (valid for
/// non-canonical configs too, unlike config_index()).
std::uint64_t operand_seed(const gemm::KernelConfig& config,
                           const gemm::GemmShape& shape) {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(config.row_tile),
        static_cast<std::uint64_t>(config.col_tile),
        static_cast<std::uint64_t>(config.acc_size),
        static_cast<std::uint64_t>(config.wg_rows),
        static_cast<std::uint64_t>(config.wg_cols),
        static_cast<std::uint64_t>(shape.m), static_cast<std::uint64_t>(shape.k),
        static_cast<std::uint64_t>(shape.n)}) {
    seed = seed * 0x100000001b3ULL ^ v;
  }
  return seed;
}

void fill_uniform(std::span<float> out, common::Rng& rng) {
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/// Compares checked output against the reference and finalises the result.
CheckResult finalise(AccessMonitor& monitor, std::span<const float> actual,
                     std::span<const float> expected) {
  CheckResult result;
  std::size_t worst_index = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double err = std::abs(static_cast<double>(actual[i]) -
                                static_cast<double>(expected[i]));
    if (err > result.max_abs_error) {
      result.max_abs_error = err;
      worst_index = i;
    }
  }
  if (result.max_abs_error > kTolerance ||
      !std::isfinite(result.max_abs_error)) {
    result.numerics_ok = false;
    std::ostringstream os;
    os << "output diverges from reference by " << result.max_abs_error
       << " (tolerance " << kTolerance << ")";
    monitor.report({.kind = DiagnosticKind::numeric_divergence,
                    .kernel = {},
                    .buffer = "C",
                    .index = worst_index,
                    .group_a = kNoGroup,
                    .group_b = kNoGroup,
                    .message = os.str()});
  }
  result.findings = monitor.findings();
  result.dropped_findings = monitor.dropped();
  return result;
}

}  // namespace

syclrt::Event launch_checked_gemm(syclrt::Queue& queue,
                                  const gemm::KernelConfig& config,
                                  CheckedAccessor<const float> a,
                                  CheckedAccessor<const float> b,
                                  CheckedAccessor<float> c,
                                  const gemm::GemmShape& shape) {
  return find_checked(config).flat(queue, a, b, c, shape, config.wg_rows,
                                   config.wg_cols);
}

syclrt::Event launch_checked_batched_gemm(syclrt::Queue& queue,
                                          const gemm::KernelConfig& config,
                                          CheckedAccessor<const float> a,
                                          CheckedAccessor<const float> b,
                                          CheckedAccessor<float> c,
                                          const gemm::GemmShape& shape,
                                          std::size_t batch) {
  return find_checked(config).batched(queue, a, b, c, shape, batch,
                                      config.wg_rows, config.wg_cols);
}

CheckResult check_gemm(const gemm::KernelConfig& config,
                       const gemm::GemmShape& shape) {
  const std::string label = config.name() + "@" + shape.to_string();
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed(config, shape));
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(shape.m * shape.n);
  gemm::reference_gemm(a, b, expected, shape);

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  find_checked(config).flat(queue, a_buf.read(), b_buf.read(), c_buf.write(),
                            shape, config.wg_rows, config.wg_cols);
  return finalise(monitor, c_buf.host(), expected);
}

CheckResult check_batched_gemm(const gemm::KernelConfig& config,
                               const gemm::GemmShape& shape,
                               std::size_t batch) {
  AKS_CHECK(batch > 0, "batched check needs at least one batch entry");
  const std::string label =
      config.name() + "@" + shape.to_string() + "xB" + std::to_string(batch);
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed(config, shape) ^ batch);
  std::vector<float> a(batch * shape.m * shape.k);
  std::vector<float> b(batch * shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(batch * shape.m * shape.n);
  for (std::size_t bi = 0; bi < batch; ++bi) {
    gemm::reference_gemm(
        std::span<const float>(a).subspan(bi * shape.m * shape.k,
                                          shape.m * shape.k),
        std::span<const float>(b).subspan(bi * shape.k * shape.n,
                                          shape.k * shape.n),
        std::span<float>(expected).subspan(bi * shape.m * shape.n,
                                           shape.m * shape.n),
        shape);
  }

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", batch * shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  find_checked(config).batched(queue, a_buf.read(), b_buf.read(),
                               c_buf.write(), shape, batch, config.wg_rows,
                               config.wg_cols);
  return finalise(monitor, c_buf.host(), expected);
}

CheckResult check_hierarchical_gemm(const gemm::GemmShape& shape) {
  const std::string label = "hierarchical_t8@" + shape.to_string();
  AccessMonitor monitor(label);

  common::Rng rng(operand_seed({}, shape) ^ 0x5157ULL);
  std::vector<float> a(shape.m * shape.k);
  std::vector<float> b(shape.k * shape.n);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(shape.m * shape.n);
  gemm::reference_gemm(a, b, expected, shape);

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", shape.m * shape.n, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  gemm::basic_hierarchical_gemm<8>(queue, a_buf.read(), b_buf.read(),
                                   c_buf.write(), shape);
  return finalise(monitor, c_buf.host(), expected);
}

std::vector<gemm::GemmShape> default_shape_corpus() {
  return {
      {16, 16, 16},  // aligned interior tiles for every config
      {17, 13, 9},   // ragged in all three dimensions (K remainders)
      {33, 20, 27},  // interior + edge tiles in the same launch
      {5, 7, 3},     // smaller than most tiles: edge path everywhere
      {1, 40, 1},    // degenerate row/column with long K
  };
}

RegistryCheckSummary check_registry(const RegistryCheckOptions& options) {
  RegistryCheckSummary summary;
  const std::vector<gemm::GemmShape> shapes =
      options.shapes.empty() ? default_shape_corpus() : options.shapes;

  const auto& configs = gemm::enumerate_configs();
  std::size_t limit = configs.size();
  if (options.max_configs > 0 && options.max_configs < limit) {
    limit = options.max_configs;
  }

  const auto absorb = [&summary](const CheckResult& result) {
    ++summary.launches;
    summary.dropped_findings += result.dropped_findings;
    summary.max_abs_error =
        std::max(summary.max_abs_error, result.max_abs_error);
    summary.findings.insert(summary.findings.end(), result.findings.begin(),
                            result.findings.end());
  };

  for (std::size_t i = 0; i < limit; ++i) {
    const gemm::KernelConfig& config = configs[i];
    ++summary.configs_checked;
    for (const auto& shape : shapes) {
      absorb(check_gemm(config, shape));
    }
    // The batched kernel shares the compiled instantiation; replay it once
    // per config on a small ragged batch.
    if (options.include_batched) {
      absorb(check_batched_gemm(config, {9, 5, 7}, 3));
    }
  }
  if (options.include_hierarchical) {
    for (const auto& shape : shapes) {
      absorb(check_hierarchical_gemm(shape));
    }
  }
  return summary;
}

}  // namespace aks::check
