#include "gemm/registry.hpp"

#include <optional>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "gemm/tiled_kernel.hpp"
#include "trace/trace.hpp"

namespace aks::gemm {

std::size_t registry_size() { return kTiledInstantiations<>.size(); }

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
  const auto& kernel = tiled_instantiation(config);
  // The queue's launch span picks the annotation up from thread-local state
  // — this is the layer that knows which selection decision is being run.
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, /*batch=*/1));
  }
  return kernel.launch(queue, a, b, c, shape, config.wg_rows, config.wg_cols);
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
  const auto& kernel = tiled_instantiation(config);
  std::optional<trace::LaunchAnnotation> annotation;
  if (trace::enabled()) {
    annotation.emplace(launch_info(config, shape, batch));
  }
  return kernel.launch_batched(queue, a, b, c, shape, batch, config.wg_rows,
                               config.wg_cols);
}

}  // namespace aks::gemm
