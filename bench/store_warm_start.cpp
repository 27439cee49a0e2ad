// Persistent-store warm-start gate — the tentpole acceptance criteria of
// the selection store, end to end (non-zero exit on violation):
//
//   1. a COLD run over the full extracted shape corpus tunes every shape
//      once and flushes the decisions to a store;
//   2. a WARM-STARTED service over the same corpus performs ZERO warm-up
//      sweeps (service misses, duplicate sweeps and tuner trials all zero)
//      and serves configs identical to the cold run;
//   3. a service on a DIFFERENT device warm-started from the same store
//      serves every shape sweep-free as a cross-device transfer prior,
//      then refresh_provisional() replaces every prior with a locally
//      tuned decision;
//   4. an injected torn write during flush leaves the store loadable with
//      only the torn record dropped, and the retried flush persists the
//      rest.
//
// CI runs this in the store-durability job; it is also the local smoke
// test after touching src/store or the serving warm-start path.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "core/online.hpp"
#include "faults/injector.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"

namespace aks {
namespace {

int failures = 0;

void gate(bool ok, const std::string& what) {
  std::cout << (ok ? "  PASS  " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<std::size_t> candidate_set() {
  std::vector<std::size_t> candidates;
  for (std::size_t c = 0; c < gemm::enumerate_configs().size(); c += 40) {
    candidates.push_back(c);
  }
  return candidates;
}

struct Run {
  std::vector<std::size_t> chosen;
  serve::ServiceStats stats;
  std::size_t trials = 0;
  std::size_t refreshed = 0;
};

Run run_corpus(const std::vector<gemm::GemmShape>& corpus,
               store::SelectionStore& store, const perf::DeviceSpec& device,
               bool refresh) {
  const perf::TimingModel timing(device, 0.0, 7);
  Run run;
  select::OnlineTuner tuner(
      candidate_set(),
      [&](const gemm::KernelConfig& config, const gemm::GemmShape& shape) {
        ++run.trials;
        return timing.best_of(config, shape, 3);
      });
  serve::SelectionService service(tuner);
  service.warm_start(store, device);
  for (const auto& shape : corpus) {
    run.chosen.push_back(gemm::config_index(service.select(shape)));
  }
  if (refresh) run.refreshed = service.refresh_provisional();
  run.stats = service.stats();
  return run;
}

}  // namespace
}  // namespace aks

int main() {
  using namespace aks;
  bench::print_banner("Persistent store warm-start gate",
                      "the deployment story around Section V");
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};

  const auto path = std::filesystem::temp_directory_path() /
                    "aks_bench_store_warm_start.aks";
  std::filesystem::remove(path);
  const auto nano = perf::DeviceSpec::amd_r9_nano();
  const auto igpu = perf::DeviceSpec::integrated_gpu();

  // Unique shapes, first-seen order: the corpus lowers 172 GEMMs but some
  // shapes repeat across networks, and the store keys by shape.
  std::vector<gemm::GemmShape> corpus;
  {
    std::set<gemm::GemmShape> seen;
    for (const auto& lowered : data::extract_all_shapes()) {
      if (seen.insert(lowered.shape).second) corpus.push_back(lowered.shape);
    }
  }
  std::cout << "corpus: " << corpus.size() << " unique shapes, "
            << candidate_set().size() << " candidates, store " << path
            << "\n\ncold run (" << nano.name << "):\n";

  Run cold;
  {
    store::SelectionStore store(path);
    cold = run_corpus(corpus, store, nano, /*refresh=*/false);
    gate(cold.stats.misses == corpus.size(), "every shape tuned once");
    gate(cold.trials > 0, "trial sweeps actually ran");
    gate(store.flush() == corpus.size() + 1,
         "flush persists corpus + device profile");
  }

  std::cout << "\nwarm-started run (" << nano.name << "):\n";
  {
    store::SelectionStore store(path);
    const Run warm = run_corpus(corpus, store, nano, /*refresh=*/false);
    gate(warm.stats.preloaded == corpus.size(),
         "warm start pre-seeded the full corpus");
    gate(warm.stats.misses == 0, "zero service misses");
    gate(warm.stats.duplicate_sweeps == 0, "zero duplicate sweeps");
    gate(warm.trials == 0, "zero tuner trials");
    gate(warm.chosen == cold.chosen, "configs identical to the cold run");
    gate(store.flush() == 0, "nothing new to persist");
  }

  std::cout << "\ncross-device run (" << igpu.name << "):\n";
  {
    store::SelectionStore store(path);
    const Run transfer = run_corpus(corpus, store, igpu, /*refresh=*/true);
    gate(transfer.stats.transfer_priors == corpus.size(),
         "every shape served as a transfer prior");
    gate(transfer.stats.misses == 0, "zero sweeps on the client path");
    gate(transfer.chosen == cold.chosen,
         "priors equal the source device's decisions");
    gate(transfer.refreshed == corpus.size(),
         "every prior re-tuned by refresh_provisional");
    gate(transfer.trials > 0, "local re-tune sweeps ran in the background");
    try {
      store.flush();
      gate(true, "flush persists the transferred device");
    } catch (const common::Error&) {
      gate(false, "flush persists the transferred device");
    }
  }
  {
    const store::SelectionStore store(path);
    gate(store.stats().devices == 2, "both device profiles stored");
    gate(store.stats().selections == 2 * corpus.size(),
         "both devices' corpora stored");
  }

  std::cout << "\ncrash injection (torn write during flush):\n";
  {
    store::SelectionStore store(path);
    store::SelectionRecord extra;
    extra.device_fingerprint = nano.fingerprint();
    extra.shape = {4096, 4096, 4096};
    extra.config_index = 0;
    extra.sweeps = 1;
    store.put(extra);
    bool threw = false;
    {
      faults::ScopedFaultPlan torn{faults::FaultPlan::parse("store-torn=1")};
      try {
        store.flush();
      } catch (const common::Error&) {
        threw = true;
      }
    }
    gate(threw, "torn write surfaced as common::Error");
    gate(store.stats().dirty == 1, "record stays dirty for retry");

    const auto mid = store::read_journal(path);
    gate(mid.stats.corrupt_tail_records == 1,
         "store loadable with only the torn record dropped");
    gate(mid.records.size() == 2 * corpus.size() + 2,
         "every pre-crash record survived");

    gate(store.flush() == 1, "retried flush persists the record");
  }
  {
    const store::SelectionStore store(path);
    gate(store.stats().corrupt_tail_records == 0,
         "retry healed the torn tail");
    gate(store.stats().selections == 2 * corpus.size() + 1,
         "post-crash store complete");
  }

  std::filesystem::remove(path);
  std::cout << "\n" << (failures == 0 ? "ALL GATES PASS" : "GATES FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
