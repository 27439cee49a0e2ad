// Launch entry points over the 64 compiled kernel instantiations.
//
// This is the piece the paper's library-size argument is about: every
// instantiation is a separately compiled kernel that a shipping library must
// carry. They are listed once, in gemm::kTiledInstantiations
// (tiled_kernel.hpp); `launch_gemm` indexes that table with the
// KernelConfig's compile-time parameters and launches the entry with the
// config's runtime work-group shape.
#pragma once

#include <span>

#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "syclrt/queue.hpp"

namespace aks::gemm {

/// Number of compiled kernel instantiations (64).
[[nodiscard]] std::size_t registry_size();

/// Runs C = A * B with the given configuration on `queue`.
/// Validates operand sizes; returns the launch event (with wall time).
/// Throws common::Error when the config's tile or accumulator size is not
/// one of the compiled kernels.
syclrt::Event launch_gemm(syclrt::Queue& queue, const KernelConfig& config,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c, const GemmShape& shape);

/// Runs `batch` independent multiplies of identical `shape` as ONE launch.
/// Operands are packed contiguously per batch entry (A: batch*m*k floats,
/// etc.). Used by the Winograd path for its sixteen transformed multiplies.
syclrt::Event launch_batched_gemm(syclrt::Queue& queue,
                                  const KernelConfig& config,
                                  std::span<const float> a,
                                  std::span<const float> b,
                                  std::span<float> c, const GemmShape& shape,
                                  std::size_t batch);

}  // namespace aks::gemm
