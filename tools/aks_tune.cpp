// aks_tune — command-line driver for the automated kernel selection flow.
//
//   aks_tune dataset <out.csv>                  build + save the tuning dataset
//   aks_tune prune   [options]                  choose a kernel set, print it
//   aks_tune train   [options]                  full pipeline; save/emit selector
//   aks_tune select  --selector <file> M K N    query a saved selector
//   aks_tune serve   [options]                  replay the shape corpus
//                                               through the concurrent
//                                               serving layer, print metrics
//                                               (--store <file> persists and
//                                               warm-starts the decisions)
//   aks_tune store   inspect <store>            persistent-store toolbox
//   aks_tune store   export  <store> <out.csv>
//   aks_tune store   import  <in.csv> <store>
//   aks_tune store   merge   <dst> <src>...
//   aks_tune store   compact <store>
//   aks_tune report                             one-page tuning summary
//
// Common options:
//   --dataset <file>     load a dataset saved by `aks_tune dataset` instead
//                        of rebuilding (rebuild is the default; it is fast)
//   --device <name>      r9nano | igpu | embedded       (default r9nano)
//   --method <name>      topn | kmeans | hdbscan | pca-kmeans | dtree | agglo
//   --selector-method    dtree | forest | 1nn | 3nn | linear-svm |
//                        radial-svm | gbm
//   --n <count>          kernel budget (default 8)
//   --out <file>         where `train` writes the selector
//   --emit-code          `train` prints the generated C++ selector
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "check/symbolic/certificate.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "core/codegen.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "dataset/benchmark_runner.hpp"
#include "faults/injector.hpp"
#include "serve/selection_service.hpp"
#include "store/csv_io.hpp"
#include "store/selection_store.hpp"
#include "trace/trace.hpp"

namespace {

using namespace aks;

using Args = common::CliArgs;

/// Every flag any command reads; anything else is a usage error.
constexpr Args::Flag kFlags[] = {
    {"dataset", true},           {"device", true},
    {"device-file", true},       {"method", true},
    {"selector-method", true},   {"n", true},
    {"out", true},               {"emit-code", false},
    {"selector", true},          {"threads", true},
    {"repeats", true},           {"batch-size", true},
    {"serve-mode", true},        {"metrics-out", true},
    {"store", true},             {"certify", true},
    {"trace-out", true},         {"trace-buffer-kb", true},
    {"trace-summary-out", true}, {"fault-plan", true},
};

/// Upper bound of the count flags that have no natural limit.
constexpr std::size_t kIntMax = std::numeric_limits<int>::max();

perf::DeviceSpec device_from(const Args& args) {
  if (args.has("device-file")) {
    return perf::DeviceSpec::from_file(args.get("device-file"));
  }
  const std::string name = args.get("device", "r9nano");
  if (name == "r9nano") return perf::DeviceSpec::amd_r9_nano();
  if (name == "igpu") return perf::DeviceSpec::integrated_gpu();
  if (name == "embedded") return perf::DeviceSpec::embedded_accelerator();
  AKS_FAIL("unknown device '" << name << "' (r9nano | igpu | embedded)");
}

select::PruneMethod prune_method_from(const Args& args) {
  const std::string name = args.get("method", "dtree");
  if (name == "topn") return select::PruneMethod::kTopN;
  if (name == "kmeans") return select::PruneMethod::kKMeans;
  if (name == "hdbscan") return select::PruneMethod::kHdbscan;
  if (name == "pca-kmeans") return select::PruneMethod::kPcaKMeans;
  if (name == "dtree") return select::PruneMethod::kDecisionTree;
  if (name == "agglo") return select::PruneMethod::kAgglomerative;
  AKS_FAIL("unknown prune method '" << name << "'");
}

select::SelectorMethod selector_method_from(const Args& args) {
  const std::string name = args.get("selector-method", "dtree");
  if (name == "dtree") return select::SelectorMethod::kDecisionTree;
  if (name == "forest") return select::SelectorMethod::kRandomForest;
  if (name == "1nn") return select::SelectorMethod::k1Nn;
  if (name == "3nn") return select::SelectorMethod::k3Nn;
  if (name == "linear-svm") return select::SelectorMethod::kLinearSvm;
  if (name == "radial-svm") return select::SelectorMethod::kRadialSvm;
  if (name == "gbm") return select::SelectorMethod::kGradientBoosting;
  AKS_FAIL("unknown selector method '" << name << "'");
}

std::size_t budget_from(const Args& args) {
  return args.number<std::size_t>("n", 8, 2, 640);
}

data::PerfDataset dataset_from(const Args& args) {
  if (args.has("dataset")) {
    const std::string file = args.get("dataset");
    std::cerr << "loading dataset from " << file << "\n";
    return data::PerfDataset::load(file);
  }
  const auto device = device_from(args);
  std::cerr << "building dataset on " << device.name << "...\n";
  return data::run_model_benchmarks(data::extract_all_shapes(), device, {});
}

// Certificate gate for a persistent store: --certify <certify.csv> (a
// report saved by the symbolic verifier) becomes the per-config SAFE mask
// and expected-digest table for `device`, so uncertified or
// stale-certificate records are rejected at load. The gate fails closed: a
// config the report does not certify SAFE on `device` is rejected, and a
// report with no certificate for `device` at all is an error.
store::StoreOptions store_options_from(const Args& args,
                                       const perf::DeviceSpec& device,
                                       bool strict = false) {
  store::StoreOptions options;
  options.strict = strict;
  if (!args.has("certify")) return options;
  const std::string path = args.get("certify");
  const auto report = check::symbolic::CertifyReport::load_csv(path);
  const std::size_t num_configs = gemm::enumerate_configs().size();
  options.certified_mask = report.safe_mask(num_configs, device.name);
  options.cert_digests.assign(num_configs, 0);
  std::size_t covered = 0;
  for (const auto& cert : report.certificates) {
    if (cert.device != device.name || cert.config_index >= num_configs) {
      continue;
    }
    ++covered;
    // Digest over the verdict-defining fields: regenerating certificates
    // with a different outcome invalidates stored records for the config.
    const std::string row = cert.config + "|" + cert.device + "|" +
                            std::string(to_string(cert.verdict)) + "|" +
                            cert.rule + "|" + cert.precondition;
    options.cert_digests[cert.config_index] = common::fnv1a64(row);
  }
  AKS_CHECK(covered > 0, "certify report " << path
                                           << " holds no certificate for "
                                           << device.name);
  std::size_t safe = 0;
  for (const bool bit : options.certified_mask) safe += bit ? 1u : 0u;
  std::cerr << "certificate gate: " << safe << "/" << num_configs
            << " configs SAFE on " << device.name << "\n";
  return options;
}

int cmd_store(const Args& args) {
  const auto& pos = args.positional();
  AKS_CHECK(!pos.empty(),
            "usage: aks_tune store inspect|export|import|merge|compact ...");
  const std::string sub = pos[0];
  const auto device = device_from(args);

  if (sub == "inspect") {
    AKS_CHECK(pos.size() == 2,
              "usage: aks_tune store inspect <store>");
    const store::SelectionStore store(pos[1],
                                      store_options_from(args, device));
    const auto stats = store.stats();
    std::cout << pos[1] << ": " << stats.selections
              << " selections, " << stats.devices << " devices\n"
              << "  loaded " << stats.records_loaded
              << " records, corrupt tail records "
              << stats.corrupt_tail_records << " (" << stats.bytes_dropped
              << " bytes dropped)\n"
              << "  rejected: malformed " << stats.rejected_malformed
              << ", uncertified " << stats.rejected_uncertified
              << ", stale digest " << stats.rejected_digest << "\n";
    const auto& configs = gemm::enumerate_configs();
    for (const auto& profile : store.devices()) {
      std::cout << "  device " << store::fingerprint_hex(profile.fingerprint)
                << "  "
                << profile.name << "\n";
    }
    for (const auto& record : store.selections()) {
      std::cout << "  " << store::fingerprint_hex(record.device_fingerprint)
                << "  "
                << record.shape.m << "x" << record.shape.k << "x"
                << record.shape.n << " -> "
                << configs[record.config_index].name() << "  ("
                << to_string(record.source) << ", " << record.warmup_seconds
                << "s warm-up, " << record.sweeps << " sweeps)\n";
    }
    return 0;
  }
  if (sub == "export") {
    AKS_CHECK(pos.size() == 3,
              "usage: aks_tune store export <store> <out.csv>");
    const store::SelectionStore store(pos[1],
                                      store_options_from(args, device));
    std::ofstream out(pos[2]);
    AKS_CHECK(out.good(), "cannot open " << pos[2]);
    export_store_csv(store, out);
    std::cout << "exported " << store.stats().selections << " selections, "
              << store.stats().devices << " devices to " << pos[2]
              << "\n";
    return 0;
  }
  if (sub == "import") {
    AKS_CHECK(pos.size() == 3,
              "usage: aks_tune store import <in.csv> <store>");
    std::ifstream in(pos[1]);
    AKS_CHECK(in.good(), "cannot open " << pos[1]);
    // Imports are validation-strict: a malformed row or an uncertified
    // config is an error, not a silently dropped record.
    store::SelectionStore store(pos[2],
                                store_options_from(args, device,
                                                   /*strict=*/true));
    const std::size_t imported = import_store_csv(in, store);
    store.flush();
    std::cout << "imported " << imported << " records into "
              << pos[2] << "\n";
    return 0;
  }
  if (sub == "merge") {
    AKS_CHECK(pos.size() >= 3,
              "usage: aks_tune store merge <dst> <src>...");
    store::SelectionStore dst(pos[1],
                              store_options_from(args, device));
    std::size_t adopted = 0;
    for (std::size_t i = 2; i < pos.size(); ++i) {
      const store::SelectionStore src(pos[i],
                                      store_options_from(args, device));
      adopted += dst.merge_from(src);
    }
    dst.flush();
    std::cout << "merged " << adopted << " records into " << pos[1]
              << " (" << dst.stats().selections << " selections, "
              << dst.stats().devices << " devices)\n";
    return 0;
  }
  if (sub == "compact") {
    AKS_CHECK(pos.size() == 2,
              "usage: aks_tune store compact <store>");
    store::SelectionStore store(pos[1],
                                store_options_from(args, device));
    store.compact();
    std::cout << "compacted " << pos[1] << " to "
              << store.stats().selections << " selections, "
              << store.stats().devices << " devices\n";
    return 0;
  }
  AKS_FAIL("unknown store subcommand '" << sub
                                        << "' (inspect | export | import | "
                                           "merge | compact)");
}

int cmd_dataset(const Args& args) {
  const auto& pos = args.positional();
  AKS_CHECK(!pos.empty(), "usage: aks_tune dataset <out.csv>");
  const auto dataset = dataset_from(args);
  dataset.save(pos[0]);
  std::cout << "wrote " << dataset.num_shapes() << " shapes x "
            << dataset.num_configs() << " configs to " << pos[0] << "\n";
  return 0;
}

int cmd_prune(const Args& args) {
  const auto dataset = dataset_from(args);
  const auto split = dataset.split(0.8, 1);
  const auto pruner = select::make_pruner(prune_method_from(args));
  const auto configs = pruner->prune(split.train, budget_from(args));
  std::cout << "method: " << pruner->name() << ", budget: " << configs.size()
            << ", test ceiling: "
            << 100.0 * select::pruning_ceiling(split.test, configs) << "%\n";
  for (const auto& config : select::configs_of(configs)) {
    std::cout << "  " << config.name() << "\n";
  }
  return 0;
}

int cmd_train(const Args& args) {
  const auto dataset = dataset_from(args);
  select::PipelineOptions options;
  options.num_configs = budget_from(args);
  options.prune_method = prune_method_from(args);
  options.selector_method = selector_method_from(args);
  const auto result = select::run_pipeline(dataset, options);

  std::cout << "pruner " << select::to_string(options.prune_method)
            << " + selector " << select::to_string(options.selector_method)
            << " @ " << options.num_configs << " kernels\n"
            << "  test ceiling:   " << 100.0 * result.ceiling << "%\n"
            << "  test achieved:  " << 100.0 * result.achieved << "%\n"
            << "  compiled kernels shipped: " << result.compiled_kernels
            << "\n";

  const auto* tree =
      dynamic_cast<const select::DecisionTreeSelector*>(result.selector.get());
  if (args.has("out")) {
    AKS_CHECK(tree != nullptr,
              "--out only supports the decision-tree selector");
    select::save_selector(*tree, args.get("out"));
    std::cout << "  selector saved to " << args.get("out") << "\n";
  }
  if (args.has("emit-code")) {
    AKS_CHECK(tree != nullptr,
              "--emit-code only supports the decision-tree selector");
    std::cout << select::generate_selector_code(*tree);
  }
  return 0;
}

int cmd_select(const Args& args) {
  const auto& pos = args.positional();
  AKS_CHECK(args.has("selector") && pos.size() == 3,
            "usage: aks_tune select --selector <file> M K N");
  const auto selector = select::load_selector(args.get("selector"));
  const gemm::GemmShape shape{
      .m = common::parse_number<std::size_t>(pos[0], "M"),
      .k = common::parse_number<std::size_t>(pos[1], "K"),
      .n = common::parse_number<std::size_t>(pos[2], "N")};
  std::cout << selector.select_config(shape).name() << "\n";
  return 0;
}

// Replays the extracted shape corpus through serve::SelectionService with
// --threads concurrent clients x --repeats passes, serving either the online
// tuner (--serve-mode online, default) or a freshly trained selector
// (--serve-mode learned), and prints the service metrics as CSV
// (--metrics-out <file> to redirect).
int cmd_serve(const Args& args) {
  const auto threads = args.number<std::size_t>("threads", 4, 1, 256);
  const auto repeats = args.number<std::size_t>("repeats", 20, 1, kIntMax);
  // 0 (default) = per-request select(); N >= 1 = clients resolve their
  // shuffled pass in select_batch() chunks of N, like a framework picking
  // kernels for a whole graph at once.
  const auto batch_size =
      args.number<std::size_t>("batch-size", 0, 0, kIntMax);
  const std::string mode = args.get("serve-mode", "online");
  AKS_CHECK(mode == "online" || mode == "learned",
            "--serve-mode must be online | learned");

  const auto dataset = dataset_from(args);
  const auto split = dataset.split(0.8, 1);
  const auto pruner = select::make_pruner(prune_method_from(args));
  const auto allowed = pruner->prune(split.train, budget_from(args));

  std::vector<gemm::GemmShape> corpus;
  for (const auto& lowered : data::extract_all_shapes()) {
    corpus.push_back(lowered.shape);
  }

  const auto device = device_from(args);
  std::unique_ptr<store::SelectionStore> store;
  if (args.has("store")) {
    store = std::make_unique<store::SelectionStore>(
        args.get("store"), store_options_from(args, device));
  }

  // Tracing covers everything from here on — warm start, the client loops,
  // provisional refreshes and the final store flush all land in one file.
  std::unique_ptr<trace::TraceSession> trace_session;
  const std::string trace_out = args.get("trace-out");
  if (args.has("trace-out")) {
    trace::TraceOptions trace_options;
    if (args.has("trace-buffer-kb")) {
      trace_options.buffer_bytes_per_thread =
          args.number<std::size_t>("trace-buffer-kb", 0, 1, kIntMax) * 1024;
    }
    trace_session = std::make_unique<trace::TraceSession>(trace_options);
  }

  const perf::TimingModel timing(device, 0.03, 42);
  select::OnlineTuner tuner(
      allowed, [&](const gemm::KernelConfig& config,
                   const gemm::GemmShape& shape) {
        return timing.best_of(config, shape, 5);
      });
  std::unique_ptr<select::KernelSelector> learned;
  std::unique_ptr<serve::SelectionService> service;
  serve::ServiceOptions service_options;
  if (faults::plan_active()) {
    // Under an installed fault plan, serve the degradation contract: a
    // failed warm-up answers with the tuner's guaranteed fallback instead
    // of surfacing the error to clients.
    service_options.fallback = tuner.fallback_config();
  }
  if (mode == "learned") {
    learned = std::make_unique<select::DecisionTreeSelector>();
    learned->fit(split.train, allowed);
    service = std::make_unique<serve::SelectionService>(*learned,
                                                        service_options);
  } else {
    service = std::make_unique<serve::SelectionService>(tuner,
                                                        service_options);
  }
  if (store) {
    const std::size_t seeded = service->warm_start(*store, device);
    std::cerr << "warm start: " << seeded << " shapes pre-seeded from "
              << store->path() << "\n";
  }

  std::cerr << "serving " << corpus.size() << " shapes x " << repeats
            << " repeats on " << threads << " threads (" << mode;
  if (batch_size > 0) std::cerr << ", batches of " << batch_size;
  std::cerr << ")...\n";
  common::Timer timer;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      common::Rng rng(0xab5 + t);
      std::vector<std::size_t> order(corpus.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::vector<gemm::GemmShape> batch;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        rng.shuffle(order);
        if (batch_size == 0) {
          for (const std::size_t s : order) (void)service->select(corpus[s]);
          continue;
        }
        for (std::size_t at = 0; at < order.size(); at += batch_size) {
          batch.clear();
          const std::size_t end = std::min(at + batch_size, order.size());
          for (std::size_t i = at; i < end; ++i) {
            batch.push_back(corpus[order[i]]);
          }
          (void)service->select_batch(batch);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = timer.elapsed_seconds();

  std::size_t refreshed = 0;
  if (store) {
    // Cross-device priors served during the run get their local re-tune
    // now, off the client path, before the decisions are persisted.
    refreshed = service->refresh_provisional();
  }
  const auto stats = service->stats();
  const auto total = static_cast<double>(threads * repeats * corpus.size());
  std::cout << "served " << static_cast<std::uint64_t>(total) << " selects in "
            << seconds << "s (" << total / seconds << "/s)\n"
            << "  hits " << stats.hits << ", misses " << stats.misses
            << ", coalesced waits " << stats.coalesced_waits
            << ", duplicate sweeps " << stats.duplicate_sweeps << "\n"
            << "  cached shapes " << stats.cached_shapes
            << ", warm-up seconds " << stats.warmup_seconds << "\n";
  if (batch_size > 0) {
    std::cout << "  batches " << stats.batch_requests << ", batched shapes "
              << stats.batch_shapes << ", deduplicated " << stats.batch_dedup
              << ", wave-warmed " << stats.batch_wave_shapes << "\n";
  }
  if (store) {
    std::cout << "  store: preloaded " << stats.preloaded
              << ", transfer priors " << stats.transfer_priors
              << ", refreshed " << refreshed;
    try {
      const std::size_t flushed = store->flush();
      std::cout << ", flushed " << flushed << " records\n";
    } catch (const common::Error& e) {
      // Degradation contract: losing warm-start persistence must never
      // fail the serving run — the decisions already served stand.
      std::cout << ", flush FAILED (kept in memory)\n";
      std::cerr << "warning: store flush failed: " << e.what() << "\n";
    }
  }
  if (faults::plan_active()) {
    std::cout << "  warm-up failures " << stats.warmup_failures
              << ", fallbacks served " << stats.fallbacks_served
              << ", quarantined configs " << tuner.quarantined().size()
              << ", degraded selects " << tuner.degraded_selects() << "\n"
              << "  fault probes " << faults::probes_total()
              << ", faults injected " << faults::faults_injected_total()
              << "\n";
  }
  if (args.has("metrics-out")) {
    const std::string out = args.get("metrics-out");
    std::ofstream file(out);
    AKS_CHECK(file.good(), "cannot open " << out);
    service->metrics().write_csv(file);
    std::cout << "  metrics written to " << out << "\n";
  } else {
    service->metrics().write_csv(std::cout);
  }
  if (trace_session) {
    trace_session->stop();
    {
      std::ofstream file(trace_out);
      AKS_CHECK(file.good(), "cannot open " << trace_out);
      trace_session->write_chrome_json(file);
    }
    const auto trace_stats = trace_session->stats();
    std::cout << "  trace: " << trace_stats.recorded << " events from "
              << trace_stats.threads << " threads ("
              << trace_stats.dropped
              << " dropped) written to " << trace_out << "\n";
    if (args.has("trace-summary-out")) {
      const std::string summary = args.get("trace-summary-out");
      std::ofstream file(summary);
      AKS_CHECK(file.good(), "cannot open " << summary);
      trace_session->write_span_summary_csv(file);
      std::cout << "  trace summary written to " << summary << "\n";
    }
  }
  return stats.duplicate_sweeps == 0 ? 0 : 1;
}

int cmd_report(const Args& args) {
  const auto dataset = dataset_from(args);
  const auto counts = dataset.optimal_counts();
  std::size_t winners = 0;
  for (const auto c : counts) winners += c > 0 ? 1u : 0u;
  std::cout << "dataset: " << dataset.num_shapes() << " shapes, "
            << dataset.num_configs() << " configs, " << winners
            << " distinct winners\n";
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{15}}) {
    select::PipelineOptions options;
    options.num_configs = n;
    const auto result = select::run_pipeline(dataset, options);
    std::cout << "  " << n << " kernels: ceiling "
              << 100.0 * result.ceiling << "%, tree selector "
              << 100.0 * result.achieved << "%\n";
  }
  return 0;
}

void print_usage() {
  std::cerr <<
      "usage: aks_tune <command> [options]\n"
      "commands:\n"
      "  dataset <out.csv>   build and save the tuning dataset\n"
      "  prune               choose a kernel set and print it\n"
      "  train               full pipeline; --out/--emit-code to deploy\n"
      "  select --selector <file> M K N\n"
      "  serve               replay the corpus through the serving layer\n"
      "                      (--threads N --repeats R --serve-mode\n"
      "                      online|learned --metrics-out <csv>\n"
      "                      --batch-size N to resolve each pass through\n"
      "                      select_batch() in chunks of N (0 = per-request\n"
      "                      select(), the default)\n"
      "                      --store <file> to warm-start from / persist to\n"
      "                      a selection store; --trace-out <json> records a\n"
      "                      Chrome/Perfetto trace of the run, with\n"
      "                      --trace-buffer-kb N per-thread buffering and\n"
      "                      --trace-summary-out <csv> per-span quantiles)\n"
      "  store inspect <store>          persistent selection-store toolbox\n"
      "  store export <store> <out.csv>\n"
      "  store import <in.csv> <store>\n"
      "  store merge <dst> <src>...\n"
      "  store compact <store>\n"
      "  report              one-page tuning summary\n"
      "options: --dataset <csv> --device r9nano|igpu|embedded\n"
      "         --device-file <key=value file> (see DeviceSpec::from_file)\n"
      "         --method topn|kmeans|hdbscan|pca-kmeans|dtree|agglo\n"
      "         --selector-method dtree|forest|1nn|3nn|linear-svm|radial-svm|gbm\n"
      "         --n <budget> --out <file> --emit-code\n"
      "         --fault-plan <spec>  inject deterministic faults (canned:\n"
      "                      none|timing-noise-heavy|launch-failure-heavy|\n"
      "                      mixed, optional @rate, or key=value pairs —\n"
      "                      see DESIGN.md; overrides AKS_FAULT_PLAN)\n"
      "         --certify <certify.csv>  gate store records on symbolic\n"
      "                      SAFE certificates (see `akscheck certify`)\n";
}

int run(const std::string& command, const Args& args) {
  // Load AKS_FAULT_PLAN before any work, so a malformed plan exits 1 here
  // rather than being swallowed by the first tuner trial that probes it.
  (void)faults::plan_active();
  // Install the fault plan before any command runs so every layer
  // (dataset runner, tuner, serving) sees the same plan for the whole
  // process; takes precedence over the AKS_FAULT_PLAN environment plan.
  std::optional<faults::ScopedFaultPlan> fault_plan;
  if (args.has("fault-plan")) {
    const auto plan = faults::FaultPlan::parse(args.get("fault-plan"));
    fault_plan.emplace(plan);
    std::cerr << "fault plan: " << plan.to_string() << "\n";
  }
  if (command == "dataset") return cmd_dataset(args);
  if (command == "prune") return cmd_prune(args);
  if (command == "train") return cmd_train(args);
  if (command == "select") return cmd_select(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "store") return cmd_store(args);
  if (command == "report") return cmd_report(args);
  print_usage();
  return command.empty() ? 1 : 2;
}

}  // namespace

// Exit status: 0 success, 1 error, 2 usage error (unknown command, or an
// undeclared, repeated or valueless flag).
int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args.emplace(argc - 1, argv + 1, kFlags);  // argv[1] is the command
  } catch (const aks::common::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage();
    return 2;
  }
  try {
    return run(argc > 1 ? argv[1] : "", *args);
  } catch (const aks::common::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
