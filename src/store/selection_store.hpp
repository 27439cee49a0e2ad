// Persistent selection store — the durable tuning cache over the journal.
//
// A SelectionStore maps (device fingerprint, GemmShape) to the tuned
// SelectionRecord, loaded from an append-only journal (journal.hpp) and
// mutated write-behind: put() only updates memory and marks the entry
// dirty; flush() appends the dirty set, so the serving hot path never
// touches the filesystem. Append-only means the last record for a key wins
// on load — an upsert is just another append, and compact() folds the
// history down to the live set with an atomic rename.
//
// Trust boundary: records are integrity-checked by the journal (CRC32,
// torn-tail recovery) and then *validated* here — an out-of-range config
// index, a config outside the certified-safe mask, or a certificate-digest
// mismatch rejects the record at load (counted, never served). A store is
// data, not code, but a stale or corrupt store must degrade to a cold
// start, never to serving an unsafe or unknown kernel.
//
// Cross-device transfer: when the running device's fingerprint has no
// entry for a shape, lookup_transfer() ranks the *stored* device profiles
// by architectural similarity (perfmodel feature space) and returns the
// nearest device's decision as a prior — the portability result of
// Lawson's follow-up paper. Callers count it and re-tune in the background
// (serve::SelectionService::refresh_provisional).
//
// All public methods are thread-safe. Two locks split memory from disk:
// store.state guards the maps and dirty queues and is a leaf — no file I/O
// and no other lock is taken under it — so lookups, put() and put_batch()
// never wait on the disk. store.flush serialises flush() and compact():
// each swaps its work out under store.state, then encodes and writes
// holding store.flush alone. The journal writer opens at the first flush
// that has records to write and stays open, so a store that is only read
// never opens, creates or truncates its file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/shape.hpp"
#include "perfmodel/device_spec.hpp"
#include "store/journal.hpp"
#include "store/record.hpp"

namespace aks::store {

struct StoreOptions {
  /// Per-canonical-config certificate gate (index = canonical config
  /// index, true = certified SAFE). When non-empty, selections whose
  /// config is not certified are rejected at load and by put(). Typically
  /// check::symbolic::CertifyReport::safe_mask() carried across the
  /// process boundary — the store stays free of analysis-tool deps.
  std::vector<bool> certified_mask;
  /// Expected per-config certificate digests (0 = no expectation). A
  /// loaded record carrying a non-zero digest that disagrees is rejected:
  /// the certificate regime changed since the store was written.
  std::vector<std::uint64_t> cert_digests;
  /// Escalate any journal corruption or record rejection to common::Error
  /// instead of dropping and counting (import validation).
  bool strict = false;
};

struct StoreStats {
  // -- Load-time accounting (fixed after construction).
  std::size_t records_loaded = 0;
  std::size_t corrupt_tail_records = 0;
  std::size_t bytes_dropped = 0;
  std::size_t rejected_malformed = 0;
  std::size_t rejected_uncertified = 0;
  std::size_t rejected_digest = 0;

  // -- Live state.
  std::size_t selections = 0;
  std::size_t devices = 0;
  std::size_t dirty = 0;

  // -- Mutation/IO counters.
  std::size_t appended = 0;
  std::size_t write_failures = 0;
  std::size_t transfer_lookups = 0;
  std::size_t transfer_hits = 0;
};

class SelectionStore {
 public:
  /// Loads `path` (a missing file is an empty store). Throws common::Error
  /// on an unreadable header, or on any corruption when options.strict.
  explicit SelectionStore(std::filesystem::path path, StoreOptions options = {});

  SelectionStore(const SelectionStore&) = delete;
  SelectionStore& operator=(const SelectionStore&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Exact lookup for (fingerprint, shape).
  [[nodiscard]] std::optional<SelectionRecord> lookup(
      std::uint64_t device_fingerprint, const gemm::GemmShape& shape) const;

  struct TransferPrior {
    SelectionRecord record;       ///< the nearest device's decision
    std::string source_device;    ///< its stored profile name
    double similarity = 0.0;      ///< perfmodel feature-space similarity
  };

  /// Nearest-device prior for a shape the running device has no entry for:
  /// stored profiles are ranked by similarity to `device` (descending,
  /// name-tiebroken for determinism) and the closest one holding the shape
  /// wins. Returns nullopt when no stored device has the shape. `device` is
  /// the running device's precomputed profile (DeviceProfileRecord::
  /// from_spec), so a miss never re-derives its fingerprint or features.
  [[nodiscard]] std::optional<TransferPrior> lookup_transfer(
      const DeviceProfileRecord& device, const gemm::GemmShape& shape) const;

  /// Upserts a selection (write-behind; call flush() to persist). Fills an
  /// empty cert_digest from the expected-digest table when one is
  /// configured. Returns false — and stores nothing — when the config
  /// index is out of range or fails the certificate gate.
  bool put(SelectionRecord record);

  /// Upserts a whole wave of selections under one lock acquisition — the
  /// write-behind path for serve::SelectionService::select_batch, which
  /// enqueues the records of a cold miss wave together instead of taking
  /// the store mutex once per shape. Same per-record validation as put();
  /// returns how many records were accepted.
  std::size_t put_batch(std::vector<SelectionRecord> records);

  /// Upserts the device profile that makes this fingerprint transferable.
  void put_device(const perf::DeviceSpec& spec);
  /// Upserts a persisted profile: the import/merge path, or a profile a
  /// caller already built with DeviceProfileRecord::from_spec.
  void put_profile(DeviceProfileRecord profile);

  /// Appends every dirty record to the journal; returns how many were
  /// persisted. The dirty batch is taken in one swap, so records put while
  /// it is written stay dirty for the next flush. On a write failure the
  /// persisted prefix is clean, the failed record and everything after it
  /// are queued again ahead of anything dirtied meanwhile, the writer is
  /// dropped (the next flush reopens it and recovers a torn tail), and the
  /// error propagates (callers on the serving path catch and degrade —
  /// losing warm-start data must never take serving down).
  std::size_t flush();

  /// Rewrites the journal to exactly the live set (atomic rename), folding
  /// superseded appends away. Flushes dirty entries as part of the rewrite;
  /// records put while it writes stay dirty.
  void compact();

  /// Live selections, ordered by (fingerprint, shape) for determinism.
  [[nodiscard]] std::vector<SelectionRecord> selections() const;
  /// Stored device profiles, ordered by fingerprint.
  [[nodiscard]] std::vector<DeviceProfileRecord> devices() const;

  /// Folds `other`'s live set into this store: profiles union; selections
  /// union, keeping the existing record on key conflicts (left-biased, so
  /// merge order is an explicit policy choice of the caller).
  std::size_t merge_from(const SelectionStore& other);

  [[nodiscard]] StoreStats stats() const;

 private:
  using Key = std::pair<std::uint64_t, gemm::GemmShape>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::uint64_t>{}(key.first) ^
             std::hash<gemm::GemmShape>{}(key.second);
    }
  };

  /// Insertion-ordered set of dirty keys: mark() is O(1) and leaves a key
  /// that is already queued in its place; take() hands over the whole
  /// queue, oldest first.
  template <typename K, typename Hash = std::hash<K>>
  class DirtyQueue {
   public:
    void mark(const K& key) {
      if (index_.insert(key).second) order_.push_back(key);
    }
    [[nodiscard]] std::size_t size() const { return order_.size(); }
    std::vector<K> take() {
      index_.clear();
      return std::exchange(order_, {});
    }
    /// Queues `keys` (taken earlier, never written) again, ahead of every
    /// key marked since; one that was also marked meanwhile is queued once,
    /// in its front place.
    void requeue_front(std::vector<K> keys) {
      if (keys.empty()) return;
      std::unordered_set<K, Hash> requeued(keys.begin(), keys.end());
      for (const K& key : order_) {
        if (!requeued.contains(key)) keys.push_back(key);
      }
      index_.merge(requeued);
      order_ = std::move(keys);
    }

   private:
    std::vector<K> order_;
    std::unordered_set<K, Hash> index_;
  };

  /// Records in journal order (profiles first), copied out under
  /// store.state so they can be encoded and written without it.
  struct Batch {
    std::vector<DeviceProfileRecord> profiles;
    std::vector<SelectionRecord> selections;
    [[nodiscard]] std::size_t size() const {
      return profiles.size() + selections.size();
    }
  };

  bool put_locked(SelectionRecord record, bool from_load)
      AKS_REQUIRES(mutex_);
  /// Swaps both dirty queues out as one batch, counted in flight.
  [[nodiscard]] Batch take_dirty_locked() AKS_REQUIRES(mutex_);
  /// Ends a flush or compact of `batch` that wrote its first `written`
  /// records: the rest are queued again ahead of anything dirtied meanwhile.
  void settle_locked(const Batch& batch, std::size_t written)
      AKS_REQUIRES(mutex_);

  std::filesystem::path path_;
  StoreOptions options_;

  // Lock order: store.flush before store.state; store.state is a leaf.
  aks::Mutex flush_mutex_{"store.flush"};
  /// Opened by the first flush() with records to write and kept; dropped
  /// after a failed append and before compact() renames over path_.
  std::optional<JournalWriter> writer_ AKS_GUARDED_BY(flush_mutex_);

  mutable aks::Mutex mutex_{"store.state"};
  std::map<Key, SelectionRecord> selections_ AKS_GUARDED_BY(mutex_);
  std::map<std::uint64_t, DeviceProfileRecord> devices_ AKS_GUARDED_BY(mutex_);
  DirtyQueue<Key, KeyHash> dirty_ AKS_GUARDED_BY(mutex_);
  DirtyQueue<std::uint64_t> dirty_devices_ AKS_GUARDED_BY(mutex_);
  /// Records taken by a flush or compact that is still writing them; they
  /// count as dirty until it settles.
  std::size_t in_flight_ AKS_GUARDED_BY(mutex_) = 0;
  /// mutable: const lookups still count (transfer_lookups/hits telemetry).
  mutable StoreStats stats_ AKS_GUARDED_BY(mutex_);
};

}  // namespace aks::store
