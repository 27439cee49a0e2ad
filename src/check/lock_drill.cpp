#include "check/lock_drill.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "perfmodel/device_spec.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"
#include "trace/trace.hpp"

namespace aks::check {

namespace {

std::vector<gemm::GemmShape> drill_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  shapes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back(
        {32 + 16 * i, 64 + 8 * ((i * 5) % 13), 32 + 24 * ((i * 11) % 7)});
  }
  return shapes;
}

/// One worker's request mix: all four entry points, with shape indices
/// offset per thread so some requests collide (coalesced waits, shard
/// contention) and some do not.
void drive(serve::SelectionService& service,
           const std::vector<gemm::GemmShape>& shapes, std::size_t thread_index,
           std::size_t requests) {
  for (std::size_t r = 0; r < requests; ++r) {
    const gemm::GemmShape& shape = shapes[(thread_index * 7 + r) % shapes.size()];
    switch (r % 4) {
      case 0:
        (void)service.select(shape);
        break;
      case 1: {
        const std::size_t begin = r % shapes.size();
        const std::size_t len = std::min<std::size_t>(4, shapes.size() - begin);
        (void)service.select_batch(std::span(shapes.data() + begin, len));
        break;
      }
      case 2:
        (void)service.select_async(shape).get();
        break;
      default:
        // stats() reconciles the shard-striped hit counters (serve.hit_sync
        // under the shard locks) — a distinct nesting worth observing.
        (void)service.stats();
        (void)service.select(shape);
        break;
    }
  }
}

}  // namespace

lockdep::Report run_lock_drill(const LockDrillOptions& options) {
  lockdep::reset();

  const auto journal =
      std::filesystem::temp_directory_path() / "aks_lock_drill.journal";
  std::filesystem::remove(journal);

  // A seeded plan with every probability zero: the injector takes its plan
  // lock on installation and snapshot without ever firing a fault, so
  // faults.plan joins the graph exactly where production probes put it.
  faults::FaultPlan plan;
  plan.seed = 1;
  const faults::ScopedFaultPlan install(plan);

  std::optional<trace::TraceSession> session;
  if (options.trace) session.emplace();

  const auto shapes = drill_shapes(std::max<std::size_t>(options.shapes, 1));
  const std::vector<std::size_t> candidates = {0, 1, 2, 3};
  const auto timer = [](const gemm::KernelConfig&,
                        const gemm::GemmShape& shape) {
    return 1e-6 * static_cast<double>(shape.m + shape.k + shape.n);
  };

  {
    store::SelectionStore store(journal);
    select::OnlineTuner tuner(candidates, timer);
    serve::ServiceOptions service_options;
    service_options.fallback = gemm::enumerate_configs()[0];
    serve::SelectionService service(tuner, service_options);
    (void)service.warm_start(store, perf::DeviceSpec::amd_r9_nano());

    std::vector<std::thread> workers;
    workers.reserve(options.threads);
    for (std::size_t t = 0; t < options.threads; ++t) {
      workers.emplace_back([&service, &shapes, t, &options] {
        drive(service, shapes, t, options.requests_per_thread);
      });
    }
    for (auto& worker : workers) worker.join();

    (void)service.refresh_provisional();
    (void)store.flush();
    store.compact();
  }

  // Second generation: re-open the store (journal replay) and warm-start a
  // fresh service from it, so the pre-seed path (shard locks only) and the
  // warm hit path both join the graph.
  {
    store::SelectionStore store(journal);
    select::OnlineTuner tuner(candidates, timer);
    serve::SelectionService service(tuner);
    (void)service.warm_start(store, perf::DeviceSpec::amd_r9_nano());
    for (const auto& shape : shapes) (void)service.select(shape);
    (void)store.flush();
  }

  if (session) session->stop();
  std::filesystem::remove(journal);
  return lockdep::capture();
}

}  // namespace aks::check
