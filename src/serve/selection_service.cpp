#include "serve/selection_service.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/online.hpp"
#include "core/selector.hpp"
#include "store/selection_store.hpp"
#include "trace/trace.hpp"

namespace aks::serve {

namespace {

/// Cache shards; a power of two, so a shape's hash picks one by mask.
constexpr std::size_t kShards = 16;
constexpr std::size_t kShardMask = kShards - 1;
static_assert(std::has_single_bit(kShards));

// select() latency is *sampled* (1 request in 32 per thread): recording
// every call would put three shared atomic RMWs on the cache-hit path and
// the resulting cache-line bouncing flattens throughput scaling. The first
// request of every thread is always sampled.
constexpr std::uint32_t kLatencySampleStride = 32;
thread_local std::uint32_t tl_latency_tick = 0;

}  // namespace

SelectionService::SelectionService(WarmUpFn warm_up, ServiceOptions options)
    : warm_up_(std::move(warm_up)),
      fallback_(options.fallback),
      hits_(metrics_.counter("serve.hits")),
      misses_(metrics_.counter("serve.misses")),
      coalesced_waits_(metrics_.counter("serve.coalesced_waits")),
      duplicate_sweeps_(metrics_.counter("serve.duplicate_sweeps")),
      warmup_failures_(metrics_.counter("serve.warmup_failures")),
      fallbacks_served_(metrics_.counter("serve.fallbacks_served")),
      preloaded_(metrics_.counter("serve.preloaded")),
      transfer_priors_(metrics_.counter("serve.transfer_priors")),
      provisional_refreshes_(metrics_.counter("serve.provisional_refreshes")),
      batch_requests_(metrics_.counter("serve.batch_requests")),
      batch_shapes_(metrics_.counter("serve.batch_shapes")),
      batch_dedup_(metrics_.counter("serve.batch_dedup")),
      batch_wave_shapes_(metrics_.counter("serve.batch_wave_shapes")),
      warmup_seconds_(metrics_.accumulator("serve.warmup_seconds")),
      select_latency_(metrics_.histogram("serve.select_latency")),
      warmup_latency_(metrics_.histogram("serve.warmup_latency")),
      batch_size_(metrics_.histogram("serve.batch_size")),
      batch_amortized_latency_(
          metrics_.histogram("serve.batch_amortized_latency")) {
  AKS_CHECK(warm_up_ != nullptr, "selection service needs a warm-up function");
  shards_.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SelectionService::SelectionService(const select::KernelSelector& selector,
                                   ServiceOptions options)
    : SelectionService(
          [&selector](const gemm::GemmShape& shape) {
            return selector.select_config(shape);
          },
          options) {
  record_source_ = store::Source::kLearnedSelector;
  shipped_ = selector.allowed();
}

SelectionService::SelectionService(select::OnlineTuner& tuner,
                                   ServiceOptions options)
    : SelectionService(
          [&tuner](const gemm::GemmShape& shape) {
            return tuner.sweep(shape);
          },
          options) {
  tuner_ = &tuner;
  shipped_ = tuner.candidates();
}

SelectionService::Shard& SelectionService::shard_for(
    const gemm::GemmShape& shape) {
  const std::size_t h = std::hash<gemm::GemmShape>{}(shape);
  return *shards_[h & kShardMask];
}

gemm::KernelConfig SelectionService::select(const gemm::GemmShape& shape) {
  std::optional<common::ScopedLatency> latency;
  if ((tl_latency_tick++ & (kLatencySampleStride - 1)) == 0) {
    latency.emplace(select_latency_);
  }
  const std::size_t shard_index =
      std::hash<gemm::GemmShape>{}(shape) & kShardMask;
  Shard& shard = *shards_[shard_index];

  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.select",
             {trace::arg("m", shape.m), trace::arg("k", shape.k),
              trace::arg("n", shape.n), trace::arg("shard", shard_index)});
  }

  std::shared_ptr<Entry> entry;
  bool leader = false;
  {
    aks::MutexLock lock(shard.m);
    auto& slot = shard.map[shape];
    if (!slot) {
      slot = std::make_shared<Entry>();
      leader = true;
    }
    entry = slot;
  }

  if (leader) {
    // Store-backed services consult the nearest-device prior before paying
    // for a sweep; a hit publishes the entry (provisionally) sweep-free.
    if (store_ != nullptr && try_transfer_prior(shape, entry)) {
      span.annotate(trace::arg("outcome", "transfer_prior"));
      return entry->config;
    }
    span.annotate(trace::arg("outcome", "miss"));
    return run_warm_up(shape, shard, entry);
  }

  if (entry->ready.load(std::memory_order_acquire)) {
    // Hot path: published entries are immutable, no entry lock needed, and
    // the hit count goes to the shard's stripe, not a global line.
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    span.annotate(trace::arg("outcome", "hit"));
  } else {
    coalesced_waits_.add();
    span.annotate(trace::arg("outcome", "coalesced_wait"));
    aks::MutexLock lock(entry->m);
    while (!entry->ready.load(std::memory_order_acquire)) {
      entry->cv.wait(lock);
    }
  }
  if (entry->error) std::rethrow_exception(entry->error);
  if (entry->fallback) {
    fallbacks_served_.add();
    span.annotate(trace::arg("fallback", std::uint64_t{1}));
  }
  return entry->config;
}

std::vector<gemm::KernelConfig> SelectionService::select_batch(
    std::span<const gemm::GemmShape> shapes) {
  batch_requests_.add();
  const std::size_t n = shapes.size();
  batch_shapes_.add(n);
  batch_size_.record_value(n);
  if (n == 0) return {};

  common::Timer timer;
  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.select_batch", {trace::arg("batch", n)});
  }

  // -- Deduplicate: one open-addressed pass assigns every input a unique id
  // in first-occurrence input order (so unique id order *is* the order a
  // sequential caller would first see each shape — the order the miss wave
  // must run in, because the tuner's quarantine health evolves with it).
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t table_size = std::bit_ceil(2 * n);
  const std::size_t table_mask = table_size - 1;
  std::vector<std::uint32_t> table(table_size, kEmpty);
  std::vector<std::uint32_t> remap(n);
  std::vector<std::uint32_t> uniq_first;  // input index of first occurrence
  std::vector<std::size_t> uniq_hash;     // hashed once, reused for shards
  uniq_first.reserve(n);
  uniq_hash.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t h = std::hash<gemm::GemmShape>{}(shapes[i]);
    std::size_t slot = h & table_mask;
    while (true) {
      const std::uint32_t id = table[slot];
      if (id == kEmpty) {
        table[slot] = static_cast<std::uint32_t>(uniq_first.size());
        remap[i] = table[slot];
        uniq_first.push_back(static_cast<std::uint32_t>(i));
        uniq_hash.push_back(h);
        break;
      }
      if (uniq_hash[id] == h && shapes[uniq_first[id]] == shapes[i]) {
        remap[i] = id;
        break;
      }
      slot = (slot + 1) & table_mask;
    }
  }
  const std::size_t nu = uniq_first.size();
  span.annotate(trace::arg("dedup", n - nu));

  // -- Per-unique resolution state.
  enum : std::uint8_t { kPending, kDone, kForeign };
  std::vector<std::uint8_t> ustate(nu, kPending);
  std::vector<gemm::KernelConfig> uconfig(nu);
  std::vector<std::shared_ptr<Entry>> uentry(nu);
  std::vector<std::exception_ptr> uerror(nu);
  // A unique whose answer came from a degraded path (fallback or error):
  // its entry was dropped, so later occurrences must re-select — exactly
  // what a sequential caller would do.
  std::vector<std::uint8_t> udegraded(nu, 0);
  std::vector<std::uint32_t> wave;  // uniques this batch must warm up

  // -- Group uniques by shard and classify each group under one shard lock
  // (a sequential caller would lock per request; the batch pays one lock
  // per *shard touched*).
  std::vector<std::uint32_t> order(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    order[u] = static_cast<std::uint32_t>(u);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return (uniq_hash[a] & kShardMask) <
                            (uniq_hash[b] & kShardMask);
                   });
  std::size_t shard_groups = 0;
  std::uint64_t ready_fallbacks = 0;
  for (std::size_t g = 0; g < nu;) {
    const std::size_t shard_index = uniq_hash[order[g]] & kShardMask;
    Shard& shard = *shards_[shard_index];
    ++shard_groups;
    std::uint64_t local_hits = 0;
    aks::MutexLock lock(shard.m);
    for (; g < nu && (uniq_hash[order[g]] & kShardMask) == shard_index; ++g) {
      const std::uint32_t u = order[g];
      auto& slot = shard.map[shapes[uniq_first[u]]];
      if (!slot) {
        slot = std::make_shared<Entry>();
        uentry[u] = slot;
        wave.push_back(u);
        continue;  // this batch leads the warm-up (after the lock pass)
      }
      if (!slot->ready.load(std::memory_order_acquire)) {
        uentry[u] = slot;  // another thread's in-flight warm-up
        ustate[u] = kForeign;
        continue;
      }
      // Published entries are immutable: reading past the acquire on
      // `ready` is safe without the entry lock, same as select()'s hot
      // path. A ready entry carrying an error/fallback is the transient
      // window before its leader drops it — a sequential select() would
      // count the hit and adopt the published outcome, so the batch does.
      ++local_hits;
      ustate[u] = kDone;
      if (slot->error) {
        uerror[u] = slot->error;
        udegraded[u] = 1;
      } else {
        uconfig[u] = slot->config;
        if (slot->fallback) {
          udegraded[u] = 1;
          ++ready_fallbacks;
        }
      }
    }
    shard.hits.fetch_add(local_hits, std::memory_order_relaxed);
  }
  if (ready_fallbacks > 0) fallbacks_served_.add(ready_fallbacks);
  span.annotate(trace::arg("shard_groups", shard_groups));
  span.annotate(trace::arg("miss_wave", wave.size()));

  // -- Miss wave: warm every cold unique through the same single-flight
  // entries select() uses, sequentially in first-occurrence input order
  // (unique ids are assigned in that order, so sorting by id restores it
  // across shard groups). Store write-behind records are deferred into one
  // put_batch below. A failure degrades only its own shape; the wave always
  // completes, so no entry is ever left unpublished.
  std::sort(wave.begin(), wave.end());
  batch_wave_shapes_.add(wave.size());
  std::vector<store::SelectionRecord> wave_records;
  for (const std::uint32_t u : wave) {
    const gemm::GemmShape& shape = shapes[uniq_first[u]];
    Shard& shard = *shards_[uniq_hash[u] & kShardMask];
    ustate[u] = kDone;
    if (store_ != nullptr && try_transfer_prior(shape, uentry[u])) {
      uconfig[u] = uentry[u]->config;
      continue;
    }
    try {
      uconfig[u] = run_warm_up(shape, shard, uentry[u],
                               store_ != nullptr ? &wave_records : nullptr);
      udegraded[u] = uentry[u]->fallback ? 1 : 0;
    } catch (...) {
      uerror[u] = std::current_exception();
      udegraded[u] = 1;
    }
  }
  if (store_ != nullptr && !wave_records.empty()) {
    // One write-behind enqueue for the whole wave; its cost stays on the
    // cold-path ledger, same as the per-shape enqueue it replaces.
    common::Timer enqueue_timer;
    (void)store_->put_batch(std::move(wave_records));
    warmup_seconds_.add(enqueue_timer.elapsed_seconds());
  }

  // -- Adopt foreign in-flight warm-ups (another thread leads; we wait,
  // counted as coalesced, exactly like select() would).
  for (std::size_t u = 0; u < nu; ++u) {
    if (ustate[u] != kForeign) continue;
    const std::shared_ptr<Entry>& entry = uentry[u];
    coalesced_waits_.add();
    {
      aks::MutexLock lock(entry->m);
      while (!entry->ready.load(std::memory_order_acquire)) {
        entry->cv.wait(lock);
      }
    }
    ustate[u] = kDone;
    if (entry->error) {
      uerror[u] = entry->error;
      udegraded[u] = 1;
    } else {
      uconfig[u] = entry->config;
      if (entry->fallback) {
        fallbacks_served_.add();
        udegraded[u] = 1;
      }
    }
  }

  // -- Fan out to input order. Duplicates of a healthy unique are answered
  // in place (counted as cache hits, like the sequential re-select they
  // replace); duplicates of a degraded unique re-select for real, because
  // the degraded entry was dropped and a sequential caller would retry the
  // warm-up. The first error in input order is rethrown only now, when the
  // whole wave has published — no entry is left dangling for waiters.
  std::vector<gemm::KernelConfig> out(n);
  std::uint64_t deduped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = remap[i];
    if (i == uniq_first[u]) {
      if (uerror[u]) std::rethrow_exception(uerror[u]);
      out[i] = uconfig[u];
      continue;
    }
    if (udegraded[u]) {
      out[i] = select(shapes[i]);  // sequential-equivalent retry; may throw
      continue;
    }
    out[i] = uconfig[u];
    shards_[uniq_hash[u] & kShardMask]->hits.fetch_add(
        1, std::memory_order_relaxed);
    ++deduped;
  }
  batch_dedup_.add(deduped);
  batch_amortized_latency_.record_seconds(timer.elapsed_seconds() /
                                          static_cast<double>(n));
  return out;
}

std::future<gemm::KernelConfig> SelectionService::select_async(
    const gemm::GemmShape& shape) {
  auto promise = std::make_shared<std::promise<gemm::KernelConfig>>();
  std::future<gemm::KernelConfig> future = promise->get_future();
  common::ThreadPool::global().post([this, shape, promise] {
    try {
      promise->set_value(select(shape));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

std::future<std::vector<gemm::KernelConfig>>
SelectionService::select_batch_async(std::vector<gemm::GemmShape> shapes) {
  auto promise =
      std::make_shared<std::promise<std::vector<gemm::KernelConfig>>>();
  std::future<std::vector<gemm::KernelConfig>> future = promise->get_future();
  common::ThreadPool::global().post([this, shapes = std::move(shapes), promise] {
    try {
      promise->set_value(select_batch(shapes));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

std::size_t SelectionService::warm_start(store::SelectionStore& store,
                                         const perf::DeviceSpec& device) {
  store_ = &store;
  device_ = store::DeviceProfileRecord::from_spec(device);
  // Record our own profile so entries flushed from this run are
  // transferable to *other* devices later.
  store.put_profile(device_);

  const auto& configs = gemm::enumerate_configs();
  std::size_t seeded = 0;
  for (const store::SelectionRecord& record : store.selections()) {
    if (record.device_fingerprint != device_.fingerprint) continue;
    // A decision for a config this service no longer ships re-tunes on
    // first request (and the fresh record supersedes it); never resurrect.
    if (!shipped_.empty() &&
        std::find(shipped_.begin(), shipped_.end(), record.config_index) ==
            shipped_.end()) {
      continue;
    }
    Shard& shard = shard_for(record.shape);
    aks::MutexLock lock(shard.m);
    auto& slot = shard.map[record.shape];
    if (slot) continue;  // already cached (warm_start called twice)
    slot = std::make_shared<Entry>();
    slot->config = configs[record.config_index];
    // A transferred record was never measured here: serve it, but leave it
    // provisional so refresh_provisional() still re-tunes it locally.
    slot->provisional = record.source == store::Source::kTransfer;
    slot->ready.store(true, std::memory_order_release);
    preloaded_.add();
    ++seeded;
  }
  return seeded;
}

bool SelectionService::try_transfer_prior(
    const gemm::GemmShape& shape, const std::shared_ptr<Entry>& entry) {
  const auto prior = store_->lookup_transfer(device_, shape);
  if (!prior.has_value()) return false;

  const gemm::KernelConfig config =
      gemm::enumerate_configs()[prior->record.config_index];
  {
    aks::MutexLock lock(entry->m);
    entry->config = config;
    entry->provisional = true;
    entry->ready.store(true, std::memory_order_release);
  }
  entry->cv.notify_all();
  transfer_priors_.add();

  // Persist the adoption under *our* fingerprint, tagged kTransfer so a
  // later warm_start still knows it is due a local re-tune.
  store::SelectionRecord record = prior->record;
  record.device_fingerprint = device_.fingerprint;
  record.source = store::Source::kTransfer;
  record.sweeps = 0;
  (void)store_->put(std::move(record));
  return true;
}

std::optional<store::SelectionRecord> SelectionService::make_record(
    const gemm::GemmShape& shape, const gemm::KernelConfig& config,
    double seconds) const {
  store::SelectionRecord record;
  record.device_fingerprint = device_.fingerprint;
  record.shape = shape;
  try {
    record.config_index =
        static_cast<std::uint32_t>(gemm::config_index(config));
  } catch (const common::Error&) {
    // Non-canonical config (custom warm-up fn): nothing to persist.
    return std::nullopt;
  }
  record.warmup_seconds = seconds;
  record.sweeps = 1;
  if (tuner_ != nullptr) {
    record.quarantined_candidates =
        static_cast<std::uint32_t>(tuner_->quarantined().size());
  }
  record.source = record_source_;
  return record;
}

void SelectionService::record_to_store(const gemm::GemmShape& shape,
                                       const gemm::KernelConfig& config,
                                       double seconds) {
  auto record = make_record(shape, config, seconds);
  if (record.has_value()) (void)store_->put(*std::move(record));
}

std::vector<gemm::GemmShape> SelectionService::provisional_shapes() const {
  std::vector<gemm::GemmShape> shapes;
  for (const auto& shard : shards_) {
    aks::MutexLock lock(shard->m);
    for (const auto& [shape, entry] : shard->map) {
      if (entry->ready.load(std::memory_order_acquire) && entry->provisional) {
        shapes.push_back(shape);
      }
    }
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

std::size_t SelectionService::refresh_provisional() {
  std::size_t refreshed = 0;
  for (const gemm::GemmShape& shape : provisional_shapes()) {
    gemm::KernelConfig config{};
    common::Timer timer;
    try {
      config = warm_up_(shape);
    } catch (...) {
      warmup_failures_.add();
      continue;  // the prior stays in place; a later refresh retries
    }
    const double sweep_seconds = timer.elapsed_seconds();

    // Published entries are immutable, so the refreshed answer goes in as
    // a *new* ready entry swapped under the shard lock; in-flight readers
    // of the old entry still see the coherent prior.
    auto fresh = std::make_shared<Entry>();
    fresh->config = config;
    fresh->ready.store(true, std::memory_order_release);
    Shard& shard = shard_for(shape);
    {
      aks::MutexLock lock(shard.m);
      shard.map[shape] = std::move(fresh);
    }
    provisional_refreshes_.add();
    ++refreshed;
    if (store_ != nullptr) record_to_store(shape, config, sweep_seconds);
    // Sampled after the publish and the write-behind enqueue, same cold-cost
    // accounting as run_warm_up.
    const double seconds = timer.elapsed_seconds();
    warmup_latency_.record_seconds(seconds);
    warmup_seconds_.add(seconds);
  }
  return refreshed;
}

gemm::KernelConfig SelectionService::run_warm_up(
    const gemm::GemmShape& shape, Shard& shard,
    const std::shared_ptr<Entry>& entry,
    std::vector<store::SelectionRecord>* wave_records) {
  misses_.add();
  if (entry->sweeps.fetch_add(1, std::memory_order_relaxed) > 0) {
    duplicate_sweeps_.add();
  }

  trace::Span span;
  if (trace::enabled()) {
    span.arm("serve.warmup",
             {trace::arg("m", shape.m), trace::arg("k", shape.k),
              trace::arg("n", shape.n)});
  }
  gemm::KernelConfig config{};
  std::exception_ptr error;
  common::Timer timer;
  try {
    config = warm_up_(shape);
  } catch (...) {
    error = std::current_exception();
  }
  const double sweep_seconds = timer.elapsed_seconds();
  span.annotate(trace::arg("seconds", sweep_seconds));

  bool degraded = false;
  if (error) {
    warmup_failures_.add();
    span.annotate(trace::arg(
        "outcome", fallback_.has_value() ? "fallback" : "error"));
    if (fallback_.has_value()) {
      // Degradation contract: serve the fallback to the leader and every
      // waiter instead of propagating; select() never throws. The entry is
      // still dropped below so the next request retries the warm-up.
      config = *fallback_;
      error = nullptr;
      degraded = true;
    }
  }

  {
    aks::MutexLock lock(entry->m);
    entry->config = config;
    entry->error = error;
    entry->fallback = degraded;
    entry->ready.store(true, std::memory_order_release);
  }
  entry->cv.notify_all();

  if (error || degraded) {
    // Drop the failed entry so a later request retries the warm-up;
    // current waiters still observe the published result (error or
    // fallback) through their Entry ref.
    aks::MutexLock lock(shard.m);
    const auto it = shard.map.find(shape);
    if (it != shard.map.end() && it->second == entry) shard.map.erase(it);
  } else if (store_ != nullptr) {
    // Write-behind: a successfully tuned answer becomes a store record (in
    // memory only — flushing is the owner's call, off the serving path). A
    // fallback served over a failed warm-up is not a tuned decision: never
    // persisted, so a warm start cannot resurrect it. On the batch path
    // the record is deferred into the wave's one put_batch enqueue.
    auto record = make_record(shape, config, sweep_seconds);
    if (record.has_value()) {
      if (wave_records != nullptr) {
        wave_records->push_back(*std::move(record));
      } else {
        (void)store_->put(*std::move(record));
      }
    }
  }

  // Sampled only now: the cold cost a miss actually adds over a hit is the
  // sweep *plus* the result publish plus the store write-behind enqueue.
  // Sampling right after the sweep (the old code) undercounted the cold
  // path — the warm-vs-cold regression test pins this ordering.
  const double cold_seconds = timer.elapsed_seconds();
  warmup_latency_.record_seconds(cold_seconds);
  warmup_seconds_.add(cold_seconds);

  if (error) std::rethrow_exception(error);
  if (degraded) {
    fallbacks_served_.add();
    return config;
  }
  return config;
}

void SelectionService::sync_hits() const {
  aks::MutexLock lock(sync_mutex_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits.load(std::memory_order_relaxed);
  }
  // Shard stripes only grow and synced_hits_ (the total already folded in)
  // only advances here under the sync mutex, so the delta is non-negative
  // and never double-counted — independent of what else hits_ reports.
  hits_.add(total - synced_hits_);
  synced_hits_ = total;
}

const common::MetricsRegistry& SelectionService::metrics() const {
  sync_hits();
  return metrics_;
}

ServiceStats SelectionService::stats() const {
  ServiceStats stats;
  sync_hits();
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.coalesced_waits = coalesced_waits_.value();
  stats.duplicate_sweeps = duplicate_sweeps_.value();
  stats.warmup_failures = warmup_failures_.value();
  stats.fallbacks_served = fallbacks_served_.value();
  stats.preloaded = preloaded_.value();
  stats.transfer_priors = transfer_priors_.value();
  stats.provisional_refreshes = provisional_refreshes_.value();
  stats.batch_requests = batch_requests_.value();
  stats.batch_shapes = batch_shapes_.value();
  stats.batch_dedup = batch_dedup_.value();
  stats.batch_wave_shapes = batch_wave_shapes_.value();
  stats.warmup_seconds = warmup_seconds_.value();
  for (const auto& shard : shards_) {
    aks::MutexLock lock(shard->m);
    stats.cached_shapes += shard->map.size();
  }
  return stats;
}

}  // namespace aks::serve
