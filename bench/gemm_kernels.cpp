// Microbenchmarks of the real (host-executed) tiled GEMM kernels.
//
// This exercises the functional kernel path on representative shapes and
// configurations — the workload whose GPU-side cost the perfmodel
// substitutes. Absolute numbers reflect the host CPU, not the paper's GPU;
// the purpose is to demonstrate that every configuration is runnable and to
// expose the host-side cost differences between tilings.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "gemm/registry.hpp"
#include "syclrt/queue.hpp"

namespace aks {
namespace {

struct Workload {
  gemm::GemmShape shape;
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> c;
};

Workload make_workload(const gemm::GemmShape& shape, std::size_t batch) {
  common::Rng rng(42);
  Workload w;
  w.shape = shape;
  w.a.resize(batch * shape.m * shape.k);
  w.b.resize(batch * shape.k * shape.n);
  w.c.resize(batch * shape.m * shape.n);
  for (auto& v : w.a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : w.b) v = static_cast<float>(rng.uniform(-1, 1));
  return w;
}

/// One launch of `config` on `shape`; a batch above 1 runs as one batched
/// launch of that many multiplies.
void bench_gemm(benchmark::State& state, const gemm::KernelConfig& config,
                const gemm::GemmShape& shape, std::size_t batch = 1) {
  auto workload = make_workload(shape, batch);
  syclrt::Queue queue;
  for (auto _ : state) {
    if (batch == 1) {
      gemm::launch_gemm(queue, config, workload.a, workload.b, workload.c,
                        workload.shape);
    } else {
      gemm::launch_batched_gemm(queue, config, workload.a, workload.b,
                                workload.c, workload.shape, batch);
    }
    benchmark::DoNotOptimize(workload.c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["GFLOP/s"] = benchmark::Counter(
      shape.flops() * static_cast<double>(batch) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void bench_batched_winograd_style(benchmark::State& state, bool batched) {
  // The Winograd workload: 16 multiplies of one transformed shape, either
  // as 16 separate launches or as one batched launch.
  const gemm::GemmShape shape{196, 64, 64};
  const gemm::KernelConfig config{2, 4, 8, 8, 16};
  const std::size_t batch = 16;
  common::Rng rng(9);
  std::vector<float> a(batch * shape.m * shape.k);
  std::vector<float> b(batch * shape.k * shape.n);
  std::vector<float> c(batch * shape.m * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  syclrt::Queue queue;
  for (auto _ : state) {
    if (batched) {
      gemm::launch_batched_gemm(queue, config, a, b, c, shape, batch);
    } else {
      for (std::size_t bi = 0; bi < batch; ++bi) {
        gemm::launch_gemm(
            queue, config,
            std::span<const float>(a).subspan(bi * shape.m * shape.k,
                                              shape.m * shape.k),
            std::span<const float>(b).subspan(bi * shape.k * shape.n,
                                              shape.k * shape.n),
            std::span<float>(c).subspan(bi * shape.m * shape.n,
                                        shape.m * shape.n),
            shape);
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
}

void register_benchmarks() {
  const gemm::GemmShape shapes[] = {
      {128, 128, 128},   // square, compute-ish
      {784, 64, 64},     // conv-like tall-skinny
      {16, 4096, 1000},  // FC batch-16
  };
  const gemm::KernelConfig configs[] = {
      {1, 1, 1, 8, 8},    // minimal tiling (the naive end)
      {2, 4, 8, 8, 16},   // a frequent dataset winner
      {4, 4, 4, 8, 8},    // balanced
      {8, 8, 8, 8, 8},    // maximal register tiling
  };
  benchmark::RegisterBenchmark("gemm/winograd16/separate_launches",
                               [](benchmark::State& state) {
                                 bench_batched_winograd_style(state, false);
                               });
  benchmark::RegisterBenchmark("gemm/winograd16/one_batched_launch",
                               [](benchmark::State& state) {
                                 bench_batched_winograd_style(state, true);
                               });
  // The launches that dominate a perfbench network_forward round, with the
  // config the shipped selector gives each: VGG-16's 28x28, 512-channel
  // convolutions under Winograd F(4x4) (36 batched multiplies), its first
  // FC layer (M = 1) and its first convolution under im2col (K = 27).
  struct NetworkLaunch {
    gemm::GemmShape shape;
    gemm::KernelConfig config;
    std::size_t batch;
  };
  const NetworkLaunch network_launches[] = {
      {{49, 512, 512}, {1, 4, 8, 8, 32}, 36},
      {{1, 25088, 4096}, {4, 1, 8, 8, 32}, 1},
      {{50176, 27, 64}, {4, 2, 8, 8, 32}, 1},
  };
  for (const auto& launch : network_launches) {
    benchmark::RegisterBenchmark(
        ("gemm/network/" + launch.shape.to_string() +
         (launch.batch > 1 ? "_batch" + std::to_string(launch.batch) : "") +
         "/" + launch.config.name())
            .c_str(),
        [launch](benchmark::State& state) {
          bench_gemm(state, launch.config, launch.shape, launch.batch);
        });
  }
  for (const auto& shape : shapes) {
    for (const auto& config : configs) {
      benchmark::RegisterBenchmark(
          ("gemm/" + shape.to_string() + "/" + config.name()).c_str(),
          [config, shape](benchmark::State& state) {
            bench_gemm(state, config, shape);
          });
    }
  }
}

}  // namespace
}  // namespace aks

int main(int argc, char** argv) {
  aks::register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
