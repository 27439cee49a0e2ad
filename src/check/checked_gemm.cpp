#include "check/checked_gemm.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include "check/checked_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_kernel.hpp"
#include "syclrt/queue.hpp"

namespace aks::check {

namespace {

using ReadAcc = CheckedAccessor<const float>;
using WriteAcc = CheckedAccessor<float>;

/// Numerical tolerance against the scalar reference (operands in [-1, 1],
/// K bounded by the corpus; pure float summation-order error).
constexpr double kTolerance = 1e-3;

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

/// The replay check_gemm and check_batched_gemm share: `batch` packed
/// multiplies of `shape` in one batched launch, or one flat launch when
/// `batch` is empty, on operands seeded from (config, shape, batch).
CheckResult replay(const gemm::KernelConfig& config,
                   const gemm::GemmShape& shape,
                   std::optional<std::size_t> batch) {
  std::string label = config.name() + "@" + shape.to_string();
  if (batch) label += "xB" + std::to_string(*batch);
  AccessMonitor monitor(label);

  const std::size_t count = batch.value_or(1);
  const std::size_t a_size = shape.m * shape.k;
  const std::size_t b_size = shape.k * shape.n;
  const std::size_t c_size = shape.m * shape.n;
  common::Rng rng(operand_seed(config, shape) ^ batch.value_or(0));
  std::vector<float> a(count * a_size);
  std::vector<float> b(count * b_size);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<float> expected(count * c_size);
  for (std::size_t bi = 0; bi < count; ++bi) {
    gemm::reference_gemm(
        std::span<const float>(a).subspan(bi * a_size, a_size),
        std::span<const float>(b).subspan(bi * b_size, b_size),
        std::span<float>(expected).subspan(bi * c_size, c_size), shape);
  }

  CheckedBuffer<float> a_buf("A", std::span<const float>(a), monitor);
  CheckedBuffer<float> b_buf("B", std::span<const float>(b), monitor);
  CheckedBuffer<float> c_buf("C", count * c_size, monitor);

  syclrt::Queue queue;
  queue.set_deterministic_replay(true);
  if (batch) {
    launch_checked_batched_gemm(queue, config, a_buf.read(), b_buf.read(),
                                c_buf.write(), shape, *batch);
  } else {
    launch_checked_gemm(queue, config, a_buf.read(), b_buf.read(),
                        c_buf.write(), shape);
  }
  return finalise(monitor, c_buf.host(), expected);
}

}  // namespace

syclrt::Event launch_checked_gemm(syclrt::Queue& queue,
                                  const gemm::KernelConfig& config,
                                  CheckedAccessor<const float> a,
                                  CheckedAccessor<const float> b,
                                  CheckedAccessor<float> c,
                                  const gemm::GemmShape& shape) {
  return gemm::tiled_instantiation<ReadAcc, WriteAcc>(config).launch(
      queue, a, b, c, shape, config.wg_rows, config.wg_cols);
}

syclrt::Event launch_checked_batched_gemm(syclrt::Queue& queue,
                                          const gemm::KernelConfig& config,
                                          CheckedAccessor<const float> a,
                                          CheckedAccessor<const float> b,
                                          CheckedAccessor<float> c,
                                          const gemm::GemmShape& shape,
                                          std::size_t batch) {
  return gemm::tiled_instantiation<ReadAcc, WriteAcc>(config).launch_batched(
      queue, a, b, c, shape, batch, config.wg_rows, config.wg_cols);
}

CheckResult check_gemm(const gemm::KernelConfig& config,
                       const gemm::GemmShape& shape) {
  return replay(config, shape, std::nullopt);
}

CheckResult check_batched_gemm(const gemm::KernelConfig& config,
                               const gemm::GemmShape& shape,
                               std::size_t batch) {
  AKS_CHECK(batch > 0, "batched check needs at least one batch entry");
  return replay(config, shape, batch);
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
    absorb(check_batched_gemm(config, {9, 5, 7}, 3));
  }
  return summary;
}

}  // namespace aks::check
