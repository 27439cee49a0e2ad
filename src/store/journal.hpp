// Append-only record journal with torn-tail recovery — the durability layer
// under the selection store.
//
// File layout (all integers little-endian):
//
//   header   "AKSSTORE" | u32 version | u32 endian marker 0x01020304
//   record*  u8 kind | u32 payload length | payload bytes | u32 crc32
//
// The CRC covers kind + length + payload, so a bit flip anywhere in a
// record — including its length field — fails the checksum. The crash
// model is append-only with no overwrite: a torn write (power loss,
// SIGKILL mid-append) leaves a strict prefix of one record at the tail.
// read_journal() accepts every record up to the first structural or CRC
// failure and drops the rest of the file — a corrupt byte is never
// resynchronised past, because the following "records" would be attacker-
// chosen framing. Dropping is counted, never silent; strict mode turns any
// drop into a common::Error (for import validation). A corrupt *header* is
// always an error: nothing after it can be trusted.
//
// JournalWriter re-runs that recovery on open — the file is truncated back
// to its last valid record before new appends — so a process that crashed
// mid-write self-heals on restart instead of appending unreadable records
// after the torn tail. Recovery reads the whole file, so it runs once per
// open, not per append: SelectionStore opens one writer at its first flush
// and keeps it, reopening only after a failed append or a compaction.
// Each append probes faults::Site::kStoreWrite
// (write-failure: nothing lands, the append throws; torn-write: a prefix
// lands, the writer is poisoned exactly like a real crash). Compaction
// writes a fresh journal beside the target and publishes it with an atomic
// rename, so a crash mid-compaction leaves the old store intact.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace aks::store {

inline constexpr std::uint32_t kJournalVersion = 1;
/// Records larger than this are structurally invalid (the store's records
/// are well under 1 KiB; a huge length is a corrupt length field).
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

enum class RecordKind : std::uint8_t {
  kSelection = 1,
  kDeviceProfile = 2,
};

struct RawRecord {
  RecordKind kind = RecordKind::kSelection;
  std::vector<std::uint8_t> payload;
};

struct JournalReadStats {
  /// Records decoded and CRC-verified.
  std::size_t records = 0;
  /// 1 when the file ended in a torn or corrupt record (everything from the
  /// first bad byte was dropped).
  std::size_t corrupt_tail_records = 0;
  /// Bytes dropped with the corrupt tail.
  std::size_t bytes_dropped = 0;
  /// File offset up to which the journal is valid (= safe truncation
  /// point for crash recovery).
  std::uint64_t valid_bytes = 0;
};

struct JournalContents {
  std::vector<RawRecord> records;
  JournalReadStats stats;
};

/// Reads every trustworthy record. A missing file is an empty journal.
/// `strict` escalates any dropped byte to common::Error; the default
/// tolerates a corrupt tail (crash recovery). A bad header always throws.
[[nodiscard]] JournalContents read_journal(const std::filesystem::path& path,
                                           bool strict = false);

/// Appends records to a journal, creating it (with header) when missing and
/// truncating a torn tail from a previous crash before the first append.
class JournalWriter {
 public:
  explicit JournalWriter(std::filesystem::path path);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Writes one record (framing + CRC) and flushes it to the OS. Throws
  /// common::Error on an injected or real write failure; after an injected
  /// torn write the writer is poisoned (like the process that died) and
  /// every later append throws — reopen to recover. Appends from different
  /// threads serialize on the writer's own mutex, so the record stream
  /// never interleaves mid-frame.
  void append(RecordKind kind, const std::vector<std::uint8_t>& payload)
      AKS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t appended() const {
    aks::MutexLock lock(mutex_);
    return appended_;
  }

 private:
  std::filesystem::path path_;
  std::uint64_t path_key_ = 0;  ///< digest of the path, part of fault keys
  // Guards the append-side state (the counters used to be mutated bare and
  // appended() read them unlocked — the annotation pass pinned that down).
  // Ordered after store.flush: SelectionStore::flush() and compact() write
  // holding that lock, never store.state.
  mutable aks::Mutex mutex_{"store.journal"};
  /// absolute index for deterministic keys
  std::size_t record_index_ AKS_GUARDED_BY(mutex_) = 0;
  std::size_t appended_ AKS_GUARDED_BY(mutex_) = 0;
  bool poisoned_ AKS_GUARDED_BY(mutex_) = false;
  int fd_ = -1;  ///< set once in the constructor, immutable afterwards
};

/// Atomically replaces `path` with a journal holding exactly `records`:
/// writes `<path>.tmp`, then renames over the target. A crash before the
/// rename leaves the original untouched; after it, the new file is
/// complete. The temp write probes the same fault site as appends.
void compact_journal(const std::filesystem::path& path,
                     const std::vector<RawRecord>& records);

}  // namespace aks::store
