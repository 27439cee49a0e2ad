#include "store/selection_store.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "store/journal.hpp"
#include "trace/trace.hpp"

namespace aks::store {

SelectionStore::SelectionStore(std::filesystem::path path,
                               StoreOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  const JournalContents contents = read_journal(path_, options_.strict);
  // No concurrent access is possible during construction, but the replay
  // below funnels through put_locked(), whose AKS_REQUIRES(mutex_) contract
  // is checked at every call site — constructors included.
  aks::MutexLock lock(mutex_);
  stats_.records_loaded = contents.stats.records;
  stats_.corrupt_tail_records = contents.stats.corrupt_tail_records;
  stats_.bytes_dropped = contents.stats.bytes_dropped;

  for (const RawRecord& raw : contents.records) {
    try {
      if (raw.kind == RecordKind::kDeviceProfile) {
        DeviceProfileRecord profile = decode_device_profile(raw.payload);
        devices_[profile.fingerprint] = std::move(profile);
      } else {
        // Last record for a key wins: append-only upserts replay in order.
        (void)put_locked(decode_selection(raw.payload), /*from_load=*/true);
      }
    } catch (const common::Error&) {
      if (options_.strict) throw;
      ++stats_.rejected_malformed;
    }
  }
}

bool SelectionStore::put_locked(SelectionRecord record, bool from_load) {
  const auto& configs = gemm::enumerate_configs();
  if (record.config_index >= configs.size()) {
    AKS_CHECK(!options_.strict, "store " << path_ << ": config index "
                                         << record.config_index
                                         << " out of range");
    ++stats_.rejected_malformed;
    return false;
  }
  if (!options_.certified_mask.empty()) {
    const bool certified =
        record.config_index < options_.certified_mask.size() &&
        options_.certified_mask[record.config_index];
    if (!certified) {
      AKS_CHECK(!options_.strict,
                "store " << path_ << ": config "
                         << configs[record.config_index].name()
                         << " has no SAFE certificate");
      ++stats_.rejected_uncertified;
      return false;
    }
  }
  if (!options_.cert_digests.empty() &&
      record.config_index < options_.cert_digests.size()) {
    const std::uint64_t expected = options_.cert_digests[record.config_index];
    if (record.cert_digest == 0) {
      record.cert_digest = expected;
    } else if (expected != 0 && record.cert_digest != expected) {
      AKS_CHECK(!options_.strict,
                "store " << path_ << ": certificate digest mismatch for "
                         << configs[record.config_index].name()
                         << " (certificates changed since the store was "
                            "written)");
      ++stats_.rejected_digest;
      return false;
    }
  }

  const Key key{record.device_fingerprint, record.shape};
  selections_[key] = record;
  // Loading replays history, it does not create new dirt.
  if (!from_load) dirty_.mark(key);
  return true;
}

std::optional<SelectionRecord> SelectionStore::lookup(
    std::uint64_t device_fingerprint, const gemm::GemmShape& shape) const {
  aks::MutexLock lock(mutex_);
  const auto it = selections_.find(Key{device_fingerprint, shape});
  if (it == selections_.end()) return std::nullopt;
  return it->second;
}

std::optional<SelectionStore::TransferPrior> SelectionStore::lookup_transfer(
    const DeviceProfileRecord& device, const gemm::GemmShape& shape) const {
  aks::MutexLock lock(mutex_);
  ++stats_.transfer_lookups;

  struct Ranked {
    double similarity;
    const DeviceProfileRecord* profile;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(devices_.size());
  for (const auto& [fingerprint, profile] : devices_) {
    if (fingerprint == device.fingerprint) continue;
    ranked.push_back(
        {feature_similarity(device.features, profile.features), &profile});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.profile->name < b.profile->name;  // deterministic tie-break
  });

  for (const Ranked& r : ranked) {
    const auto it = selections_.find(Key{r.profile->fingerprint, shape});
    if (it == selections_.end()) continue;
    ++stats_.transfer_hits;
    return TransferPrior{it->second, r.profile->name, r.similarity};
  }
  return std::nullopt;
}

bool SelectionStore::put(SelectionRecord record) {
  aks::MutexLock lock(mutex_);
  return put_locked(std::move(record), /*from_load=*/false);
}

std::size_t SelectionStore::put_batch(std::vector<SelectionRecord> records) {
  if (records.empty()) return 0;
  aks::MutexLock lock(mutex_);
  std::size_t accepted = 0;
  for (SelectionRecord& record : records) {
    if (put_locked(std::move(record), /*from_load=*/false)) ++accepted;
  }
  return accepted;
}

void SelectionStore::put_device(const perf::DeviceSpec& spec) {
  put_profile(DeviceProfileRecord::from_spec(spec));
}

void SelectionStore::put_profile(DeviceProfileRecord profile) {
  aks::MutexLock lock(mutex_);
  const std::uint64_t fingerprint = profile.fingerprint;
  const auto it = devices_.find(fingerprint);
  const bool changed = it == devices_.end() || !(it->second == profile);
  devices_[fingerprint] = std::move(profile);
  if (changed) dirty_devices_.mark(fingerprint);
}

SelectionStore::Batch SelectionStore::take_dirty_locked() {
  Batch batch;
  for (const std::uint64_t fingerprint : dirty_devices_.take()) {
    batch.profiles.push_back(devices_.at(fingerprint));
  }
  for (const Key& key : dirty_.take()) {
    batch.selections.push_back(selections_.at(key));
  }
  in_flight_ = batch.size();
  return batch;
}

void SelectionStore::settle_locked(const Batch& batch, std::size_t written) {
  in_flight_ = 0;
  std::vector<std::uint64_t> devices;
  for (std::size_t i = written; i < batch.profiles.size(); ++i) {
    devices.push_back(batch.profiles[i].fingerprint);
  }
  std::vector<Key> keys;
  const std::size_t first = written > batch.profiles.size()
                                ? written - batch.profiles.size()
                                : 0;
  for (std::size_t i = first; i < batch.selections.size(); ++i) {
    keys.emplace_back(batch.selections[i].device_fingerprint,
                      batch.selections[i].shape);
  }
  dirty_devices_.requeue_front(std::move(devices));
  dirty_.requeue_front(std::move(keys));
}

namespace {

/// Encodes `profiles` then `selections`: profiles first, so a reader of a
/// partially written journal can always resolve the fingerprints of the
/// selections that follow.
std::vector<RawRecord> encode_records(
    const std::vector<DeviceProfileRecord>& profiles,
    const std::vector<SelectionRecord>& selections) {
  std::vector<RawRecord> records(profiles.size() + selections.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    records[i].kind = RecordKind::kDeviceProfile;
    encode(profiles[i], records[i].payload);
  }
  for (std::size_t i = 0; i < selections.size(); ++i) {
    RawRecord& raw = records[profiles.size() + i];
    raw.kind = RecordKind::kSelection;
    encode(selections[i], raw.payload);
  }
  return records;
}

}  // namespace

std::size_t SelectionStore::flush() {
  aks::MutexLock flush_lock(flush_mutex_);
  Batch batch;
  {
    aks::MutexLock lock(mutex_);
    batch = take_dirty_locked();
  }
  if (batch.size() == 0) return 0;

  trace::Span span;
  if (trace::enabled()) {
    span.arm("store.flush", {trace::arg("dirty", batch.size())});
  }
  std::size_t persisted = 0;
  try {
    if (!writer_) writer_.emplace(path_);
    for (const RawRecord& raw :
         encode_records(batch.profiles, batch.selections)) {
      writer_->append(raw.kind, raw.payload);
      ++persisted;
    }
  } catch (...) {
    // The persisted prefix is durable; the failed record and everything
    // after it stay dirty, so a retry re-attempts exactly the rest. A failed
    // append may have left a torn frame, so the retry reopens the writer,
    // which truncates it first.
    writer_.reset();
    {
      aks::MutexLock lock(mutex_);
      settle_locked(batch, persisted);
      stats_.appended += persisted;
      ++stats_.write_failures;
    }
    span.annotate(trace::arg("outcome", "failed"));
    span.annotate(trace::arg("persisted", persisted));
    throw;
  }
  {
    aks::MutexLock lock(mutex_);
    settle_locked(batch, persisted);
    stats_.appended += persisted;
  }
  span.annotate(trace::arg("persisted", persisted));
  return persisted;
}

void SelectionStore::compact() {
  aks::MutexLock flush_lock(flush_mutex_);
  Batch dirty;
  Batch live;
  {
    aks::MutexLock lock(mutex_);
    // The rewrite persists the full live set, dirty entries included.
    dirty = take_dirty_locked();
    for (const auto& [fingerprint, profile] : devices_) {
      live.profiles.push_back(profile);
    }
    for (const auto& [key, record] : selections_) {
      live.selections.push_back(record);
    }
  }
  trace::Span span;
  if (trace::enabled()) {
    span.arm("store.compact", {trace::arg("live", live.size())});
  }
  // A kept writer would go on appending to the old file after the rename.
  writer_.reset();
  try {
    compact_journal(path_, encode_records(live.profiles, live.selections));
  } catch (...) {
    {
      aks::MutexLock lock(mutex_);
      settle_locked(dirty, 0);
      ++stats_.write_failures;
    }
    span.annotate(trace::arg("outcome", "failed"));
    throw;
  }
  aks::MutexLock lock(mutex_);
  settle_locked(dirty, dirty.size());
}

std::vector<SelectionRecord> SelectionStore::selections() const {
  aks::MutexLock lock(mutex_);
  std::vector<SelectionRecord> out;
  out.reserve(selections_.size());
  for (const auto& [key, record] : selections_) out.push_back(record);
  return out;
}

std::vector<DeviceProfileRecord> SelectionStore::devices() const {
  aks::MutexLock lock(mutex_);
  std::vector<DeviceProfileRecord> out;
  out.reserve(devices_.size());
  for (const auto& [fingerprint, profile] : devices_) out.push_back(profile);
  return out;
}

std::size_t SelectionStore::merge_from(const SelectionStore& other) {
  // Snapshot the other store first so lock order cannot deadlock even if
  // someone merges two stores into each other concurrently.
  const auto other_devices = other.devices();
  const auto other_selections = other.selections();

  aks::MutexLock lock(mutex_);
  std::size_t adopted = 0;
  for (const DeviceProfileRecord& profile : other_devices) {
    if (devices_.contains(profile.fingerprint)) continue;
    devices_[profile.fingerprint] = profile;
    dirty_devices_.mark(profile.fingerprint);
    ++adopted;
  }
  for (const SelectionRecord& record : other_selections) {
    const Key key{record.device_fingerprint, record.shape};
    if (selections_.contains(key)) continue;  // left-biased: ours wins
    if (put_locked(record, /*from_load=*/false)) ++adopted;
  }
  return adopted;
}

StoreStats SelectionStore::stats() const {
  aks::MutexLock lock(mutex_);
  StoreStats stats = stats_;
  stats.selections = selections_.size();
  stats.devices = devices_.size();
  stats.dirty = dirty_.size() + dirty_devices_.size() + in_flight_;
  return stats;
}

}  // namespace aks::store
