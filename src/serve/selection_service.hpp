// Concurrent selection-serving layer — the deployment face of the library.
//
// The paper ends with a selector that picks among shipped kernels per
// incoming GEMM; this module is what actually serves that decision under
// concurrent traffic. SelectionService wraps any per-shape decision
// procedure (a trained KernelSelector, an OnlineTuner, or an arbitrary
// warm-up function) behind one thread-safe API:
//
//  * sharded cache — the shape → config map is split across N mutex-striped
//    shards keyed by std::hash<GemmShape>, so unrelated shapes never
//    contend and cache hits cost one shard lock plus one atomic counter;
//
//  * single-flight warm-up — the first request for a shape becomes the
//    leader and runs the warm-up (for an online tuner, the |candidates|
//    trial sweep) exactly once; concurrent requests for the same shape
//    block on the in-flight entry and adopt the leader's answer instead of
//    duplicating the sweep. A failed warm-up is rethrown to the leader and
//    to every waiter, and the entry is dropped so later requests retry;
//
//  * metrics — hit/miss/coalesced-wait counters, select() and warm-up
//    latency histograms, and total trial seconds, via common::MetricsRegistry
//    (CSV-exportable; see bench/selection_service_throughput and
//    `aks_tune serve`). Counters are exact; the select() latency histogram
//    is sampled 1-in-32 per thread so the cache-hit path stays free of
//    shared-cache-line histogram traffic;
//
//  * persistence (optional) — warm_start() pre-seeds the cache from a
//    store::SelectionStore so stored shapes are served with zero warm-up
//    sweeps, newly tuned shapes are written behind into the store (the
//    caller flushes), and shapes only known from a *different* device are
//    served as cross-device transfer priors: published immediately (marked
//    provisional), then re-tuned by refresh_provisional() which atomically
//    swaps in the locally measured answer. See DESIGN.md "Persistence &
//    warm-start";
//
//  * batched resolution — select_batch() resolves a whole vector of shapes
//    (a graph-build wave: real frameworks pick kernels for every layer at
//    once, not per inference call) in one pass: inputs are deduplicated,
//    grouped by shard so each shard lock is taken once per batch, cold
//    misses are coalesced into a single warm-up wave that runs through the
//    same single-flight entries select() uses, and the wave's store
//    write-behind is one batched enqueue instead of one put per shape.
//    Results come back in input order and are bit-identical to sequential
//    select() calls (tests/serve_batch_equivalence_test.cpp holds the
//    property). See DESIGN.md "Batched & async selection";
//
//  * async resolution — select_async()/select_batch_async() run the same
//    code on the reentrancy-safe common::ThreadPool and hand back a
//    std::future, so callers overlap warm-up sweeps with graph
//    construction. Deadlock-free by construction: a single-flight leader is
//    always already running when any waiter exists, and it completes
//    without needing another pool slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"
#include "perfmodel/device_spec.hpp"
#include "store/record.hpp"

namespace aks::select {
class KernelSelector;
class OnlineTuner;
}  // namespace aks::select

namespace aks::store {
class SelectionStore;
}  // namespace aks::store

namespace aks::serve {

struct ServiceOptions {
  /// Degradation contract (see DESIGN.md "Fault model"): when set, a
  /// warm-up that throws serves this configuration to the leader and every
  /// coalesced waiter instead of rethrowing — select() never throws. The
  /// fallback answer is *not* cached: the entry is dropped so the next
  /// request for the shape retries the warm-up. When unset (the default),
  /// warm-up errors propagate to all callers as before.
  std::optional<gemm::KernelConfig> fallback;
};

/// Snapshot of the service counters (each individually monotonic).
struct ServiceStats {
  /// Requests answered from the cache.
  std::uint64_t hits = 0;
  /// Requests that ran the warm-up (one per shape under single-flight).
  std::uint64_t misses = 0;
  /// Requests that blocked on another thread's in-flight warm-up.
  std::uint64_t coalesced_waits = 0;
  /// Warm-ups that ran for an already-warm shape; 0 by construction.
  std::uint64_t duplicate_sweeps = 0;
  /// Warm-ups that threw (injected or real).
  std::uint64_t warmup_failures = 0;
  /// Requests (leader + waiters) answered with the fallback configuration
  /// after a failed warm-up; 0 unless ServiceOptions::fallback is set.
  std::uint64_t fallbacks_served = 0;
  /// Shapes pre-seeded from a persistent store by warm_start().
  std::uint64_t preloaded = 0;
  /// Cold shapes answered from a nearest-device store record instead of a
  /// warm-up sweep (cross-device transfer).
  std::uint64_t transfer_priors = 0;
  /// Provisional (transferred) answers replaced by a locally tuned one.
  std::uint64_t provisional_refreshes = 0;
  /// select_batch() calls (select_batch_async counts here on completion).
  std::uint64_t batch_requests = 0;
  /// Input shapes across every batch (before deduplication).
  std::uint64_t batch_shapes = 0;
  /// Batch inputs answered by an earlier occurrence in the same batch —
  /// batch_dedup / batch_shapes is the dedup ratio.
  std::uint64_t batch_dedup = 0;
  /// Cold shapes warmed inside batch miss waves (a subset of misses).
  std::uint64_t batch_wave_shapes = 0;
  /// Wall seconds of the cold path: warm-up function plus result publish
  /// plus the store write-behind enqueue (the full cost a miss adds over a
  /// hit — see the warm-vs-cold regression test).
  double warmup_seconds = 0.0;
  /// Shapes currently cached (including in-flight entries).
  std::size_t cached_shapes = 0;
};

class SelectionService {
 public:
  /// Decides the kernel for a never-seen shape. Runs at most once per shape
  /// (single-flight); may be expensive and may throw.
  using WarmUpFn = std::function<gemm::KernelConfig(const gemm::GemmShape&)>;

  explicit SelectionService(WarmUpFn warm_up, ServiceOptions options = {});
  /// Serves a trained selector (must outlive the service; fit() must have
  /// been called). Selector inference is read-only, hence shareable.
  explicit SelectionService(const select::KernelSelector& selector,
                            ServiceOptions options = {});
  /// Serves an online tuner (must outlive the service). The tuner sweeps on
  /// every call; single-flight runs that sweep once per shape, so the
  /// tuner's sweeps() count stays exact under concurrency.
  explicit SelectionService(select::OnlineTuner& tuner,
                            ServiceOptions options = {});

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  /// Thread-safe: the kernel configuration to use for `shape`.
  [[nodiscard]] gemm::KernelConfig select(const gemm::GemmShape& shape);

  /// Thread-safe batched resolution: the configuration for every shape in
  /// `shapes`, in input order, bit-identical to calling select() on each
  /// element sequentially. Duplicates are deduplicated, warm shapes are
  /// answered under one shard lock per shard touched, and cold shapes are
  /// warmed in one wave — in first-occurrence input order, through the same
  /// single-flight entries as select(), with the store write-behind
  /// enqueued once per wave. A warm-up failure degrades only that shape
  /// (fallback when configured); without a fallback the wave still
  /// completes — so no entry is ever left in flight — and the first error
  /// in input order is then rethrown.
  [[nodiscard]] std::vector<gemm::KernelConfig> select_batch(
      std::span<const gemm::GemmShape> shapes);

  /// select() on common::ThreadPool::global(): returns immediately with a
  /// future that yields the selection (or rethrows the warm-up error). Lets
  /// callers overlap warm-up sweeps with graph construction. In-flight
  /// futures must be waited out before the service is destroyed.
  [[nodiscard]] std::future<gemm::KernelConfig> select_async(
      const gemm::GemmShape& shape);

  /// select_batch() on common::ThreadPool::global() (one task for the whole
  /// batch, so the wave coalescing is preserved).
  [[nodiscard]] std::future<std::vector<gemm::KernelConfig>>
  select_batch_async(std::vector<gemm::GemmShape> shapes);

  /// Attaches a persistent store (must outlive the service) and pre-seeds
  /// the cache with every stored selection for `device`'s fingerprint —
  /// those shapes are then served with zero warm-up sweeps. Stored
  /// transfer-sourced records pre-seed as *provisional* (still due a local
  /// re-tune). A record naming a config the wrapped tuner or selector does
  /// not ship is skipped: that shape re-tunes on first request, and the
  /// fresh record supersedes the stale one. Shapes absent for this device
  /// but present for another one are afterwards served via nearest-device
  /// transfer priors on their first request. Newly warmed shapes are
  /// written behind into the store; persisting them is the caller's
  /// flush()/compact() call, never the serving hot path. Records the
  /// device profile in the store. Returns the number of pre-seeded shapes.
  /// Call before serving traffic (not thread-safe against select()).
  std::size_t warm_start(store::SelectionStore& store,
                         const perf::DeviceSpec& device);

  /// Shapes currently served from a provisional (transferred) answer.
  [[nodiscard]] std::vector<gemm::GemmShape> provisional_shapes() const;

  /// Re-tunes every provisional shape through the warm-up function and
  /// atomically swaps the locally measured answer (and its store record)
  /// in place of the transferred prior. Concurrent select() calls keep
  /// being answered throughout — first by the prior, then by the refreshed
  /// entry. A warm-up failure leaves that shape's prior in place (counted
  /// in warmup_failures). Returns the number of shapes refreshed.
  std::size_t refresh_provisional();

  [[nodiscard]] ServiceStats stats() const;

  /// Live registry backing stats(); export with metrics().write_csv(out).
  /// (Reconciles the shard-striped hit counts into `serve.hits` first.)
  [[nodiscard]] const common::MetricsRegistry& metrics() const;

 private:
  struct Entry {
    aks::Mutex m{"serve.entry"};
    aks::CondVar cv;
    /// Publishes config/error: written once under m, read lock-free by the
    /// hit path after an acquire load.
    std::atomic<bool> ready{false};
    // config/error/fallback/provisional are deliberately NOT AKS_GUARDED_BY:
    // their protocol is release/acquire publication through `ready`, which
    // the static analysis cannot express. Writers hold m and set the fields
    // before the release-store of ready; the lock-free hit path reads them
    // only after an acquire-load of ready observes true.
    gemm::KernelConfig config{};
    std::exception_ptr error;
    /// True when `config` is the service-level fallback published after a
    /// failed warm-up (written once under m before `ready`).
    bool fallback = false;
    /// True when `config` is a cross-device transfer prior still awaiting
    /// a local re-tune (written once under m before `ready`); cleared by
    /// refresh_provisional() swapping in a fresh Entry, never in place.
    bool provisional = false;
    /// Warm-up invocations for this shape; >1 would be a duplicate sweep.
    std::atomic<std::uint32_t> sweeps{0};
  };

  struct Shard {
    /// Every stripe shares one lock class: all shards are interchangeable
    /// for ordering purposes, and no code path nests two shard locks.
    mutable aks::Mutex m{"serve.shard"};
    std::unordered_map<gemm::GemmShape, std::shared_ptr<Entry>> map
        AKS_GUARDED_BY(m);
    /// Hit count striped per shard: a single global hit counter would put
    /// one contended cache line on every cache hit and flatten throughput
    /// scaling. Reconciled into the registry's serve.hits by sync_hits().
    std::atomic<std::uint64_t> hits{0};
  };

  [[nodiscard]] Shard& shard_for(const gemm::GemmShape& shape);
  /// Leader path: runs the warm-up, publishes the entry, and accounts the
  /// cold cost. When `wave_records` is set (the batch path) the store
  /// write-behind record is appended there for one batched enqueue instead
  /// of being put per shape.
  [[nodiscard]] gemm::KernelConfig run_warm_up(
      const gemm::GemmShape& shape, Shard& shard,
      const std::shared_ptr<Entry>& entry,
      std::vector<store::SelectionRecord>* wave_records = nullptr);
  /// Leader-path store consult: true when a transfer prior was published
  /// into `entry` (the warm-up sweep is then skipped for this request).
  [[nodiscard]] bool try_transfer_prior(const gemm::GemmShape& shape,
                                        const std::shared_ptr<Entry>& entry);
  /// The store record for a locally tuned decision, or nullopt for a
  /// non-canonical config (custom warm-up fn): nothing to persist.
  [[nodiscard]] std::optional<store::SelectionRecord> make_record(
      const gemm::GemmShape& shape, const gemm::KernelConfig& config,
      double seconds) const;
  /// Write-behind: records a locally tuned decision in the attached store.
  void record_to_store(const gemm::GemmShape& shape,
                       const gemm::KernelConfig& config, double seconds);
  /// Folds the per-shard hit counts into the registry's serve.hits counter
  /// (serialized so concurrent observers never double-add a delta).
  void sync_hits() const;

  WarmUpFn warm_up_;
  std::optional<gemm::KernelConfig> fallback_;
  /// Set by the OnlineTuner constructor so store records carry the tuner's
  /// quarantine count.
  select::OnlineTuner* tuner_ = nullptr;
  /// Canonical configs the wrapped tuner or selector can answer with;
  /// warm_start() pre-seeds only records naming one of them. Empty for a
  /// plain warm-up function, which ships no fixed set.
  std::vector<std::size_t> shipped_;
  /// Persistence, armed by warm_start(); null means no store attached.
  store::SelectionStore* store_ = nullptr;
  /// Provenance tag for write-behind records (which layer this service
  /// wraps); set by the typed constructors, kOnlineTuner by default.
  store::Source record_source_{};
  /// The running device's profile, built once by warm_start(): its
  /// fingerprint keys every record, and transfer lookups rank against it.
  store::DeviceProfileRecord device_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable aks::Mutex sync_mutex_{"serve.hit_sync"};
  /// Stripe total already folded into hits_; guarded so the reconciliation
  /// delta never depends on reading hits_ back.
  mutable std::uint64_t synced_hits_ AKS_GUARDED_BY(sync_mutex_) = 0;

  common::MetricsRegistry metrics_;
  // Resolved once so the hot path never touches the registry lock.
  common::Counter& hits_;
  common::Counter& misses_;
  common::Counter& coalesced_waits_;
  common::Counter& duplicate_sweeps_;
  common::Counter& warmup_failures_;
  common::Counter& fallbacks_served_;
  common::Counter& preloaded_;
  common::Counter& transfer_priors_;
  common::Counter& provisional_refreshes_;
  common::Counter& batch_requests_;
  common::Counter& batch_shapes_;
  common::Counter& batch_dedup_;
  common::Counter& batch_wave_shapes_;
  common::Accumulator& warmup_seconds_;
  common::LatencyHistogram& select_latency_;
  common::LatencyHistogram& warmup_latency_;
  /// Batch sizes (record_value: power-of-two count buckets).
  common::LatencyHistogram& batch_size_;
  /// Per-shape amortized select_batch latency (batch wall time / shapes).
  common::LatencyHistogram& batch_amortized_latency_;
};

}  // namespace aks::serve
