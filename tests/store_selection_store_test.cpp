// SelectionStore: load/put/flush/compact round-trips, certificate gating,
// merge, cross-device transfer ranking, the lifecycle of the store's one
// long-lived journal writer, and put/flush/compact racing each other — and
// the serving-layer warm-start contract: a warm-started service serves
// every stored shape with zero warm-up sweeps and identical configs, and
// transfer priors are published immediately then replaced by
// refresh_provisional().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/online.hpp"
#include "core/selector.hpp"
#include "faults/injector.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"

namespace aks::store {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  const auto path =
      std::filesystem::temp_directory_path() / ("aks_selstore_" + name);
  std::filesystem::remove(path);
  return path;
}

SelectionRecord make_record(std::uint64_t fingerprint, gemm::GemmShape shape,
                            std::uint32_t config_index,
                            Source source = Source::kOnlineTuner) {
  SelectionRecord record;
  record.device_fingerprint = fingerprint;
  record.shape = shape;
  record.config_index = config_index;
  record.warmup_seconds = 0.5;
  record.sweeps = 1;
  record.source = source;
  return record;
}

// Deterministic trial timer: the winner for a shape is a pure function of
// (shape, config), so cold and warm runs must agree exactly.
double fake_time(const gemm::KernelConfig& config,
                 const gemm::GemmShape& shape) {
  const std::size_t index = gemm::config_index(config);
  return 1.0 + 0.001 * static_cast<double>((index * 31 + shape.m * 7 +
                                            shape.k * 3 + shape.n) %
                                           97);
}

std::vector<char> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<gemm::GemmShape> test_shapes(std::size_t n) {
  std::vector<gemm::GemmShape> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.push_back({16 + 16 * i, 32 + 8 * ((i * 3) % 11), 64 + 4 * i});
  }
  return shapes;
}

const std::vector<std::size_t> kCandidates{0, 17, 120, 354, 500, 639};

TEST(SelectionStore, PutLookupFlushReopen) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("roundtrip.aks");
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const gemm::GemmShape shape{128, 256, 512};

  {
    SelectionStore store(path);
    store.put_device(device);
    EXPECT_TRUE(store.put(make_record(device.fingerprint(), shape, 354)));
    EXPECT_FALSE(store.lookup(0xdead, shape).has_value());
    const auto hit = store.lookup(device.fingerprint(), shape);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->config_index, 354u);
    EXPECT_EQ(store.stats().dirty, 2u);
    EXPECT_EQ(store.flush(), 2u);
    EXPECT_EQ(store.stats().dirty, 0u);
    EXPECT_EQ(store.flush(), 0u);  // nothing newly dirty
  }
  {
    const SelectionStore store(path);
    EXPECT_EQ(store.stats().records_loaded, 2u);
    EXPECT_EQ(store.stats().selections, 1u);
    EXPECT_EQ(store.stats().devices, 1u);
    const auto hit = store.lookup(device.fingerprint(), shape);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->config_index, 354u);
    EXPECT_EQ(hit->source, Source::kOnlineTuner);
  }
  std::filesystem::remove(path);
}

TEST(SelectionStore, LastRecordWinsAndCompactFoldsHistory) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("upsert.aks");
  const gemm::GemmShape shape{64, 64, 64};

  {
    SelectionStore store(path);
    EXPECT_TRUE(store.put(make_record(1, shape, 10)));
    store.flush();
    EXPECT_TRUE(store.put(make_record(1, shape, 20)));
    store.flush();
  }
  const auto journal_size = std::filesystem::file_size(path);
  {
    SelectionStore store(path);
    EXPECT_EQ(store.stats().records_loaded, 2u);  // both appends replayed
    EXPECT_EQ(store.stats().selections, 1u);      // newest wins
    EXPECT_EQ(store.lookup(1, shape)->config_index, 20u);
    store.compact();
  }
  EXPECT_LT(std::filesystem::file_size(path), journal_size);
  {
    const SelectionStore store(path);
    EXPECT_EQ(store.stats().records_loaded, 1u);
    EXPECT_EQ(store.lookup(1, shape)->config_index, 20u);
  }
  std::filesystem::remove(path);
}

TEST(SelectionStore, RejectsOutOfRangeConfigIndex) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("range.aks");
  SelectionStore store(path);
  EXPECT_FALSE(store.put(make_record(1, {8, 8, 8}, 60000)));
  EXPECT_EQ(store.stats().rejected_malformed, 1u);
  EXPECT_EQ(store.stats().selections, 0u);
  std::filesystem::remove(path);
}

TEST(SelectionStore, CertificateMaskRejectsUncertifiedAtPutAndLoad) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("certmask.aks");
  const gemm::GemmShape shape{32, 32, 32};

  // An unguarded writer persists configs 10 and 20.
  {
    SelectionStore store(path);
    EXPECT_TRUE(store.put(make_record(1, shape, 10)));
    EXPECT_TRUE(store.put(make_record(1, {48, 48, 48}, 20)));
    store.flush();
  }

  StoreOptions gate;
  gate.certified_mask.assign(gemm::enumerate_configs().size(), false);
  gate.certified_mask[10] = true;  // 20 stays uncertified

  // Load-time gate: the uncertified record is rejected, counted, never
  // served.
  {
    const SelectionStore store(path, gate);
    EXPECT_EQ(store.stats().rejected_uncertified, 1u);
    EXPECT_EQ(store.stats().selections, 1u);
    EXPECT_TRUE(store.lookup(1, shape).has_value());
    EXPECT_FALSE(store.lookup(1, {48, 48, 48}).has_value());
  }
  // Put-time gate.
  {
    SelectionStore store(path, gate);
    EXPECT_FALSE(store.put(make_record(1, {96, 96, 96}, 20)));
    EXPECT_TRUE(store.put(make_record(1, {96, 96, 96}, 10)));
  }
  // Strict mode escalates instead of dropping.
  gate.strict = true;
  EXPECT_THROW(SelectionStore(path, gate), common::Error);
  std::filesystem::remove(path);
}

TEST(SelectionStore, CertificateDigestMismatchRejectsStaleRecords) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("certdigest.aks");
  const gemm::GemmShape shape{32, 32, 32};

  StoreOptions old_regime;
  old_regime.cert_digests.assign(gemm::enumerate_configs().size(), 0);
  old_regime.cert_digests[10] = 0x1111;
  {
    SelectionStore store(path, old_regime);
    // put() stamps the expected digest onto the record.
    EXPECT_TRUE(store.put(make_record(1, shape, 10)));
    EXPECT_EQ(store.lookup(1, shape)->cert_digest, 0x1111u);
    store.flush();
  }

  // Same regime: accepted.
  {
    const SelectionStore store(path, old_regime);
    EXPECT_EQ(store.stats().rejected_digest, 0u);
    EXPECT_EQ(store.stats().selections, 1u);
  }
  // Certificates regenerated differently: the stored record is stale.
  StoreOptions new_regime = old_regime;
  new_regime.cert_digests[10] = 0x2222;
  {
    const SelectionStore store(path, new_regime);
    EXPECT_EQ(store.stats().rejected_digest, 1u);
    EXPECT_EQ(store.stats().selections, 0u);
  }
  std::filesystem::remove(path);
}

TEST(SelectionStore, MergeIsLeftBiasedUnion) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto dst_path = temp_path("merge_dst.aks");
  const auto src_path = temp_path("merge_src.aks");
  const gemm::GemmShape common_shape{8, 8, 8};

  SelectionStore dst(dst_path);
  SelectionStore src(src_path);
  EXPECT_TRUE(dst.put(make_record(1, common_shape, 10)));
  EXPECT_TRUE(src.put(make_record(1, common_shape, 20)));  // conflict
  EXPECT_TRUE(src.put(make_record(2, {9, 9, 9}, 30)));     // new
  src.put_device(perf::DeviceSpec::embedded_accelerator());

  EXPECT_EQ(dst.merge_from(src), 2u);  // profile + one selection
  EXPECT_EQ(dst.lookup(1, common_shape)->config_index, 10u);  // ours wins
  EXPECT_EQ(dst.lookup(2, {9, 9, 9})->config_index, 30u);
  EXPECT_EQ(dst.stats().devices, 1u);
  std::filesystem::remove(dst_path);
  std::filesystem::remove(src_path);
}

TEST(SelectionStore, TransferRanksStoredDevicesBySimilarity) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("transfer_rank.aks");
  const auto nano = perf::DeviceSpec::amd_r9_nano();
  const auto igpu = perf::DeviceSpec::integrated_gpu();
  const auto embedded = perf::DeviceSpec::embedded_accelerator();
  const gemm::GemmShape shape{100, 100, 100};

  SelectionStore store(path);
  store.put_device(nano);
  store.put_device(embedded);
  EXPECT_TRUE(store.put(make_record(nano.fingerprint(), shape, 10)));
  EXPECT_TRUE(store.put(make_record(embedded.fingerprint(), shape, 20)));

  const auto nano_profile = DeviceProfileRecord::from_spec(nano);
  const auto embedded_profile = DeviceProfileRecord::from_spec(embedded);
  const auto igpu_profile = DeviceProfileRecord::from_spec(igpu);
  const double to_nano =
      feature_similarity(igpu_profile.features, nano_profile.features);
  const double to_embedded =
      feature_similarity(igpu_profile.features, embedded_profile.features);
  ASSERT_NE(to_nano, to_embedded);  // the corpus devices are distinct

  const auto prior = store.lookup_transfer(igpu_profile, shape);
  ASSERT_TRUE(prior.has_value());
  const bool nano_nearer = to_nano > to_embedded;
  EXPECT_EQ(prior->record.config_index, nano_nearer ? 10u : 20u);
  EXPECT_EQ(prior->source_device, nano_nearer ? nano.name : embedded.name);
  EXPECT_DOUBLE_EQ(prior->similarity, std::max(to_nano, to_embedded));

  // Falls through to the next-nearest device when the nearest lacks the
  // shape, and misses cleanly when nobody has it.
  const gemm::GemmShape only_far{7, 7, 7};
  EXPECT_TRUE(store.put(make_record(
      nano_nearer ? embedded.fingerprint() : nano.fingerprint(), only_far,
      30)));
  EXPECT_EQ(
      store.lookup_transfer(igpu_profile, only_far)->record.config_index, 30u);
  EXPECT_FALSE(store.lookup_transfer(igpu_profile, {5, 5, 5}).has_value());
  // Own-fingerprint records never transfer to themselves.
  EXPECT_TRUE(store.put(make_record(igpu.fingerprint(), {6, 6, 6}, 40)));
  EXPECT_FALSE(store.lookup_transfer(igpu_profile, {6, 6, 6}).has_value());

  const auto stats = store.stats();
  EXPECT_EQ(stats.transfer_lookups, 4u);
  EXPECT_EQ(stats.transfer_hits, 2u);
  std::filesystem::remove(path);
}

// The tentpole gate in miniature: a warm-started service over a shape
// corpus performs zero warm-up sweeps and serves configs identical to the
// cold run.
TEST(StoreWarmStart, WarmRunServesIdenticalConfigsWithZeroSweeps) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("warm.aks");
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const auto shapes = test_shapes(24);

  std::vector<std::size_t> cold_configs;
  {
    SelectionStore store(path);
    select::OnlineTuner tuner(kCandidates, fake_time);
    serve::SelectionService service(tuner);
    EXPECT_EQ(service.warm_start(store, device), 0u);  // store starts empty
    for (const auto& shape : shapes) {
      cold_configs.push_back(gemm::config_index(service.select(shape)));
    }
    EXPECT_EQ(service.stats().misses, shapes.size());
    // Write-behind: every decision is dirty until the explicit flush.
    EXPECT_EQ(store.stats().dirty, shapes.size() + 1);  // + device profile
    EXPECT_EQ(store.flush(), shapes.size() + 1);
  }

  {
    SelectionStore store(path);
    std::size_t timer_calls = 0;
    select::OnlineTuner tuner(
        kCandidates, [&timer_calls](const gemm::KernelConfig& config,
                                    const gemm::GemmShape& shape) {
          ++timer_calls;
          return fake_time(config, shape);
        });
    serve::SelectionService service(tuner);
    EXPECT_EQ(service.warm_start(store, device), shapes.size());

    for (std::size_t i = 0; i < shapes.size(); ++i) {
      EXPECT_EQ(gemm::config_index(service.select(shapes[i])),
                cold_configs[i]);
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.duplicate_sweeps, 0u);
    EXPECT_EQ(stats.preloaded, shapes.size());
    EXPECT_EQ(stats.hits, shapes.size());
    EXPECT_EQ(timer_calls, 0u);    // no trial ran at all
    EXPECT_EQ(store.flush(), 0u);  // nothing new to persist
  }
  std::filesystem::remove(path);
}

// A stored decision naming a config the service no longer ships (a smaller
// candidate set, a re-pruned selector) is not resurrected: warm_start()
// skips it, the shape re-tunes on first request, and the fresh record
// supersedes the stale one.
TEST(StoreWarmStart, RecordOutsideShippedCandidatesReTunes) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("unshipped.aks");
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const gemm::GemmShape stale{64, 64, 64}, kept{96, 96, 96};
  {
    SelectionStore store(path);
    // Config 5 is in neither kCandidates nor the selector's allowed set.
    EXPECT_TRUE(store.put(make_record(device.fingerprint(), stale, 5)));
    EXPECT_TRUE(store.put(make_record(device.fingerprint(), kept, 17)));
    store.flush();
  }

  {
    SelectionStore store(path);
    select::OnlineTuner tuner(kCandidates, fake_time);
    serve::SelectionService service(tuner);
    EXPECT_EQ(service.warm_start(store, device), 1u);
    EXPECT_EQ(gemm::config_index(service.select(kept)), 17u);
    const std::size_t served = gemm::config_index(service.select(stale));
    EXPECT_NE(std::find(kCandidates.begin(), kCandidates.end(), served),
              kCandidates.end());
    EXPECT_EQ(service.stats().misses, 1u);
    EXPECT_EQ(tuner.sweeps(), 1u);
    const auto record = store.lookup(device.fingerprint(), stale);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->config_index, served);
    EXPECT_EQ(record->source, Source::kOnlineTuner);
  }

  // Same rule for a learned selector (the re-tune above was never flushed,
  // so the journal still names config 5): a one-leaf tree over {17, 120}
  // that always answers 120 ships 17 but not 5.
  ml::TreeNode leaf;
  leaf.value = {0.0, 1.0};
  leaf.n_samples = 1;
  const select::DecisionTreeSelector selector(
      ml::DecisionTreeClassifier::from_nodes({leaf}, 2, 3), {17, 120});
  SelectionStore store(path);
  serve::SelectionService service(selector);
  EXPECT_EQ(service.warm_start(store, device), 1u);
  EXPECT_EQ(gemm::config_index(service.select(stale)), 120u);
  EXPECT_EQ(service.stats().misses, 1u);
  std::filesystem::remove(path);
}

TEST(StoreWarmStart, NewShapesAreWrittenBehindAndPersistOnFlush) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("writebehind.aks");
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const gemm::GemmShape known{16, 32, 64}, fresh{512, 512, 512};

  {
    SelectionStore store(path);
    select::OnlineTuner tuner(kCandidates, fake_time);
    serve::SelectionService service(tuner);
    service.warm_start(store, device);
    (void)service.select(known);
    store.flush();
  }
  std::size_t fresh_config = 0;
  {
    SelectionStore store(path);
    select::OnlineTuner tuner(kCandidates, fake_time);
    serve::SelectionService service(tuner);
    EXPECT_EQ(service.warm_start(store, device), 1u);
    fresh_config = gemm::config_index(service.select(fresh));
    const auto record = store.lookup(device.fingerprint(), fresh);
    ASSERT_TRUE(record.has_value());  // in memory before any flush
    EXPECT_EQ(record->config_index, fresh_config);
    EXPECT_EQ(record->source, Source::kOnlineTuner);
    EXPECT_GT(record->warmup_seconds, 0.0);
    EXPECT_EQ(store.flush(), 1u);
  }
  {
    const SelectionStore store(path);
    EXPECT_EQ(store.stats().selections, 2u);
    EXPECT_EQ(store.lookup(device.fingerprint(), fresh)->config_index,
              fresh_config);
  }
  std::filesystem::remove(path);
}

TEST(StoreTransfer, PriorIsServedImmediatelyThenRefreshedLocally) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("transfer_serve.aks");
  const auto nano = perf::DeviceSpec::amd_r9_nano();
  const auto igpu = perf::DeviceSpec::integrated_gpu();
  const gemm::GemmShape shape{200, 300, 400};

  // Device A tunes and persists.
  std::size_t nano_config = 0;
  {
    SelectionStore store(path);
    select::OnlineTuner tuner(kCandidates, fake_time);
    serve::SelectionService service(tuner);
    service.warm_start(store, nano);
    nano_config = gemm::config_index(service.select(shape));
    store.flush();
  }

  // Device B warm-starts from the same store: no exact entries, but the
  // shape is served sweep-free from A's decision, marked provisional.
  SelectionStore store(path);
  std::size_t timer_calls = 0;
  select::OnlineTuner tuner(
      kCandidates, [&timer_calls](const gemm::KernelConfig& config,
                                  const gemm::GemmShape& s) {
        ++timer_calls;
        return fake_time(config, s);
      });
  serve::SelectionService service(tuner);
  EXPECT_EQ(service.warm_start(store, igpu), 0u);

  EXPECT_EQ(gemm::config_index(service.select(shape)), nano_config);
  EXPECT_EQ(timer_calls, 0u);
  {
    const auto stats = service.stats();
    EXPECT_EQ(stats.transfer_priors, 1u);
    EXPECT_EQ(stats.misses, 0u);
  }
  ASSERT_EQ(service.provisional_shapes(),
            std::vector<gemm::GemmShape>{shape});
  // The adoption is persisted under B's fingerprint, tagged as transfer.
  {
    const auto adopted = store.lookup(igpu.fingerprint(), shape);
    ASSERT_TRUE(adopted.has_value());
    EXPECT_EQ(adopted->source, Source::kTransfer);
  }

  // Background re-tune: the prior is swapped for a locally measured
  // decision; serving continues from the cache.
  EXPECT_EQ(service.refresh_provisional(), 1u);
  EXPECT_GT(timer_calls, 0u);
  EXPECT_TRUE(service.provisional_shapes().empty());
  EXPECT_EQ(service.stats().provisional_refreshes, 1u);
  const std::size_t local_config = gemm::config_index(service.select(shape));
  {
    const auto retuned = store.lookup(igpu.fingerprint(), shape);
    ASSERT_TRUE(retuned.has_value());
    EXPECT_EQ(retuned->source, Source::kOnlineTuner);
    EXPECT_EQ(retuned->config_index, local_config);
  }
  EXPECT_GE(store.flush(), 2u);  // B's profile + the re-tuned record

  // A later warm start on B pre-seeds the re-tuned record as settled.
  {
    SelectionStore reopened(path);
    select::OnlineTuner tuner2(kCandidates, fake_time);
    serve::SelectionService service2(tuner2);
    EXPECT_EQ(service2.warm_start(reopened, igpu), 1u);
    EXPECT_TRUE(service2.provisional_shapes().empty());
    EXPECT_EQ(gemm::config_index(service2.select(shape)), local_config);
    EXPECT_EQ(service2.stats().misses, 0u);
  }
  std::filesystem::remove(path);
}

TEST(StoreTransfer, StoredTransferRecordsWarmStartAsProvisional) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("transfer_persist.aks");
  const auto igpu = perf::DeviceSpec::integrated_gpu();
  const gemm::GemmShape shape{40, 40, 40};

  {
    SelectionStore store(path);
    EXPECT_TRUE(store.put(
        make_record(igpu.fingerprint(), shape, 17, Source::kTransfer)));
    store.flush();
  }
  SelectionStore store(path);
  select::OnlineTuner tuner(kCandidates, fake_time);
  serve::SelectionService service(tuner);
  EXPECT_EQ(service.warm_start(store, igpu), 1u);
  // Served sweep-free, but still flagged for a local re-tune.
  EXPECT_EQ(gemm::config_index(service.select(shape)), 17u);
  EXPECT_EQ(service.stats().misses, 0u);
  EXPECT_EQ(service.provisional_shapes(),
            std::vector<gemm::GemmShape>{shape});
  EXPECT_EQ(service.refresh_provisional(), 1u);
  EXPECT_EQ(store.lookup(igpu.fingerprint(), shape)->source,
            Source::kOnlineTuner);
  std::filesystem::remove(path);
}

TEST(StoreWarmStart, FlushFailureKeepsRecordsDirtyForRetry) {
  const auto path = temp_path("flushfail.aks");
  SelectionStore store(path);
  EXPECT_TRUE(store.put(make_record(1, {8, 8, 8}, 10)));
  EXPECT_TRUE(store.put(make_record(1, {9, 9, 9}, 20)));
  {
    faults::ScopedFaultPlan plan{faults::FaultPlan::parse("store-write=1")};
    EXPECT_THROW(store.flush(), common::Error);
    EXPECT_EQ(store.stats().write_failures, 1u);
    EXPECT_EQ(store.stats().dirty, 2u);  // nothing lost, nothing lied about
  }
  {
    faults::ScopedFaultPlan none{faults::FaultPlan::none()};
    EXPECT_EQ(store.flush(), 2u);  // retry drains the dirty set
  }
  const SelectionStore reopened(path);
  EXPECT_EQ(reopened.stats().selections, 2u);
  std::filesystem::remove(path);
}


// -- The long-lived journal writer. The store opens one JournalWriter at its
// first flush and keeps it; each case pins a hazard of keeping it.

// compact() renames a fresh file over the journal. A writer kept across the
// rename would append the second record to the unlinked old file.
TEST(SelectionStore, FlushAfterCompactLandsInTheCompactedJournal) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("compact_then_flush.aks");
  {
    SelectionStore store(path);
    EXPECT_TRUE(store.put(make_record(1, {8, 8, 8}, 10)));
    EXPECT_EQ(store.flush(), 1u);
    store.compact();
    EXPECT_TRUE(store.put(make_record(1, {9, 9, 9}, 20)));
    EXPECT_EQ(store.flush(), 1u);
  }
  const SelectionStore reopened(path);
  EXPECT_EQ(reopened.stats().selections, 2u);
  EXPECT_EQ(reopened.lookup(1, {8, 8, 8})->config_index, 10u);
  EXPECT_EQ(reopened.lookup(1, {9, 9, 9})->config_index, 20u);
  std::filesystem::remove(path);
}

// A torn append poisons the writer; the store drops it, so the retry opens
// a new one, which truncates the torn frame before appending.
TEST(SelectionStore, TornFlushRetryReopensTheWriterAndRecovers) {
  const auto path = temp_path("torn_retry.aks");
  SelectionStore store(path);
  store.put_device(perf::DeviceSpec::amd_r9_nano());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(store.put(make_record(1, {8 + i, 8, 8}, 10 + i)));
  }
  {
    faults::ScopedFaultPlan plan{faults::FaultPlan::parse("store-torn=1")};
    EXPECT_THROW(store.flush(), common::Error);
  }
  EXPECT_EQ(store.stats().dirty, 5u);
  EXPECT_EQ(store.stats().write_failures, 1u);
  {
    faults::ScopedFaultPlan none{faults::FaultPlan::none()};
    EXPECT_EQ(store.flush(), 5u);
  }
  EXPECT_EQ(store.stats().dirty, 0u);
  const SelectionStore reopened(path);
  EXPECT_EQ(reopened.stats().corrupt_tail_records, 0u);
  EXPECT_EQ(reopened.stats().records_loaded, 5u);
  EXPECT_EQ(reopened.stats().selections, 4u);
  EXPECT_EQ(reopened.stats().devices, 1u);
  std::filesystem::remove(path);
}

// A store that is only read never opens its writer: the torn tail stays on
// disk (the next writing process recovers it), and a missing journal is
// never created.
TEST(SelectionStore, ReadOnlyOpenLeavesTheJournalByteIdentical) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("read_only.aks");
  {
    SelectionStore store(path);
    EXPECT_TRUE(store.put(make_record(1, {8, 8, 8}, 10)));
    EXPECT_TRUE(store.put(make_record(1, {9, 9, 9}, 20)));
    store.flush();
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  const auto before = file_bytes(path);
  {
    SelectionStore store(path);
    EXPECT_EQ(store.stats().corrupt_tail_records, 1u);
    EXPECT_EQ(store.stats().selections, 1u);
    EXPECT_TRUE(store.lookup(1, {8, 8, 8}).has_value());
    EXPECT_EQ(store.flush(), 0u);  // nothing dirty: the file is not opened
  }
  EXPECT_EQ(file_bytes(path), before);

  const auto missing = temp_path("never_written.aks");
  { const SelectionStore store(missing); }
  EXPECT_FALSE(std::filesystem::exists(missing));
  std::filesystem::remove(path);
}

TEST(SelectionStore, RepeatedPutsOfOneKeyAppendOneRecord) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("one_key.aks");
  {
    SelectionStore store(path);
    for (std::uint32_t i = 0; i < 10000; ++i) {
      EXPECT_TRUE(store.put(make_record(1, {8, 8, 8}, i % 640)));
    }
    EXPECT_EQ(store.stats().dirty, 1u);
    EXPECT_EQ(store.flush(), 1u);
    EXPECT_EQ(store.stats().appended, 1u);
  }
  const SelectionStore reopened(path);
  EXPECT_EQ(reopened.stats().records_loaded, 1u);
  EXPECT_EQ(reopened.lookup(1, {8, 8, 8})->config_index, 9999u % 640);
  std::filesystem::remove(path);
}

// Writers and readers race one flushing thread and one compacting thread.
// Every record put while a flush or compact writes stays dirty, so after a
// final flush the journal replays to exactly the live set: last record per
// key wins, nothing lost, no torn tail.
TEST(SelectionStoreConcurrency, PutsRacingFlushAndCompactAreNeverLost) {
  faults::ScopedFaultPlan no_faults{faults::FaultPlan::none()};
  const auto path = temp_path("concurrency.aks");
  const auto nano = perf::DeviceSpec::amd_r9_nano();
  const auto embedded = perf::DeviceSpec::embedded_accelerator();
  const auto igpu = DeviceProfileRecord::from_spec(
      perf::DeviceSpec::integrated_gpu());
  constexpr std::uint32_t kWriters = 4;
  constexpr std::uint32_t kMinWaves = 200;
  constexpr int kCompactions = 20;
  constexpr std::uint32_t kKeys = 96;  // per device, shared by its writers

  SelectionStore store(path);
  store.put_device(nano);
  std::atomic<int> compactions{0};
  std::atomic<std::uint32_t> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t fingerprint =
          t % 2 == 0 ? nano.fingerprint() : embedded.fingerprint();
      // Keep writing until every compaction has raced some puts.
      for (std::uint32_t wave = 0;
           wave < kMinWaves || compactions.load() < kCompactions; ++wave) {
        std::vector<SelectionRecord> records;
        for (std::uint32_t i = 0; i < 8; ++i) {
          const std::uint32_t key = (wave * 8 + i + 17 * t) % kKeys;
          records.push_back(make_record(fingerprint, {8 + key, 16, 32},
                                        (wave + i + 13 * t) % 640));
        }
        EXPECT_EQ(store.put_batch(std::move(records)), 8u);
        (void)store.lookup_transfer(igpu, {8 + wave % kKeys, 16, 32});
        if (wave == kMinWaves / 2) store.put_device(embedded);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      (void)store.flush();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kCompactions; ++i) {
      store.compact();
      compactions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& thread : threads) thread.join();
  (void)store.flush();

  EXPECT_EQ(store.stats().dirty, 0u);
  EXPECT_EQ(store.stats().write_failures, 0u);
  const SelectionStore reopened(path);
  EXPECT_EQ(reopened.stats().corrupt_tail_records, 0u);
  EXPECT_EQ(reopened.selections(), store.selections());
  EXPECT_EQ(reopened.devices(), store.devices());
  EXPECT_EQ(reopened.stats().selections, 2 * kKeys);
  EXPECT_EQ(reopened.stats().devices, 2u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace aks::store
