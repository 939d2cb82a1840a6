// MetaStore: the journaled metadata layer behind a durable AttentionStore
// (DESIGN.md §15).
//
// The disk tier's payload file persists bytes, but every KvRecord — tier,
// extent, checksum — lives in process memory, so an unclean death used to
// discard the whole warm tier. MetaStore fixes that: every record mutation
// (put/promote/demote/evict/erase) appends one length-prefixed,
// FNV-checksummed entry to an append-only journal, and Open() replays the
// journal to rebuild the record table after a restart. Records whose final
// journaled tier was a memory tier died with the process and are dropped as
// clean misses; a torn journal tail (crash mid-append) is detected by the
// frame checksum, counted, and truncated away — recovery never guesses.
//
// The journal is bounded by compaction: when it outgrows
// compact_threshold_bytes, the live table is rewritten into "<path>.tmp",
// flushed, and atomically rename()d over the journal, so a crash during
// compaction leaves either the old journal (rename never happened) or the
// complete new snapshot — never a mix. A stale "<path>.tmp" found at Open
// is an abandoned compaction and is unlinked.
//
// Block-reuse conflicts: after a crash window the payload device may have
// reassigned blocks a stale journal entry still references. Replay resolves
// ownership in journal order — a newer entry claiming a block drops the
// older record (its payload is gone) — and AttentionStore's per-extent
// checksums backstop anything replay cannot see.
//
// Thread safety: none. MetaStore is driven by AttentionStore under the
// caller's serialization contract (the engine mutex), exactly like the
// record table it mirrors.
#ifndef CA_STORE_META_STORE_H_
#define CA_STORE_META_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/store/block_allocator.h"
#include "src/store/types.h"

namespace ca {

// When journal appends are forced to media. The in-process kill-restart
// model (CrashSwitch) never loses the page cache, so kNone is enough for
// the tests; surviving power loss needs kEveryN or kAlways.
enum class MetaFsyncPolicy : std::uint8_t {
  kNone = 0,    // page cache only: survives process death, not power loss
  kEveryN = 1,  // fdatasync every fsync_every_n appends
  kAlways = 2,  // fdatasync every append (slowest, power-loss durable)
};

// Seeded crash schedule for the journal's own fault points (tests;
// DESIGN.md §15). Each trigger freezes the shared CrashSwitch, after which
// no bytes from any holder reach any file.
struct MetaFaultConfig {
  std::shared_ptr<CrashSwitch> crash;
  // Crash on append #N: the entry lands torn after torn_append_bytes bytes
  // (default: the whole frame lands, everything later is lost).
  std::uint64_t crash_after_appends = 0;
  std::uint64_t torn_append_bytes = ~0ULL;
  // Crash at fdatasync #N, before the sync reaches the device.
  std::uint64_t crash_after_fsyncs = 0;
  // Crash during compaction #N, after the snapshot is written but before
  // the atomic rename — the old journal must win.
  std::uint64_t crash_on_compact = 0;

  bool armed() const { return crash != nullptr; }
};

// One journaled record: the durable subset of AttentionStore's KvRecord
// plus an opaque caller blob (the engine journals the serialized token
// history there so recovered sessions replay bitwise-identically).
struct MetaRecord {
  SessionId session = kInvalidSession;
  Tier tier = Tier::kNone;
  std::uint64_t bytes = 0;
  std::uint64_t token_count = 0;
  std::int64_t last_access = 0;
  std::uint64_t insert_seq = 0;
  std::uint64_t checksum = 0;
  std::vector<BlockId> blocks;  // disk-tier extent; empty for memory tiers
  std::vector<std::uint8_t> user_meta;
  // Prefix sharing (DESIGN.md §17): PutShared records carry their ordered
  // block table (shared-chunk record ids). Refcounts are deliberately NOT
  // journaled — recovery re-derives them from the surviving tables, so a
  // replayed journal can neither double-free nor leak a shared chunk.
  std::vector<SessionId> chunk_refs;
};

// What recovery did, surfaced through AttentionStore::recovery_stats() and
// the metrics registry (store_recovery.* gauges).
struct RecoveryStats {
  std::uint64_t journal_entries_replayed = 0;
  std::uint64_t records_recovered = 0;          // adopted + serving again
  std::uint64_t records_discarded_volatile = 0; // final tier was memory: died with process
  std::uint64_t records_discarded_torn = 0;     // lost to the torn journal tail
  std::uint64_t torn_tail_bytes = 0;
  std::uint64_t records_conflict_dropped = 0;   // blocks re-claimed by a newer record
  std::uint64_t records_reconciled_missing = 0; // extent/checksum disagreed with device
  std::uint64_t replay_ns = 0;
};

class MetaStore {
 public:
  struct Options {
    MetaFsyncPolicy fsync = MetaFsyncPolicy::kNone;
    std::uint32_t fsync_every_n = 64;
    std::uint64_t compact_threshold_bytes = MiB(1);
    MetaFaultConfig fault;
  };

  // Opens (creating if absent) the journal at `path` and replays it.
  // A journal written by a different format version or block size fails
  // with kFailedPrecondition; an unreadable file with kIoError. A fresh
  // journal is stamped with `fresh_store_id` (pairs it with the payload
  // file); a replayed one keeps its stored id — read it back via store_id().
  static Result<std::unique_ptr<MetaStore>> Open(std::string path, std::uint64_t block_bytes,
                                                 std::uint64_t fresh_store_id, Options options);
  ~MetaStore();

  MetaStore(const MetaStore&) = delete;
  MetaStore& operator=(const MetaStore&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t store_id() const { return store_id_; }
  // True when Open replayed an existing journal (the payload file must then
  // be reused, not truncated).
  bool recovered_existing() const { return recovered_existing_; }
  std::uint64_t journal_bytes() const { return journal_bytes_; }

  // The replayed/live record table. After AttentionStore recovery this
  // mirrors the in-memory record map exactly (CheckInvariants cross-checks).
  const std::unordered_map<SessionId, MetaRecord>& live() const { return live_; }
  const std::vector<std::uint8_t>* UserMeta(SessionId session) const;
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // Journals one mutation. The in-memory mirror is updated even when the
  // append fails (or the crash switch is frozen): the mirror tracks intent,
  // the file tracks what a restart will see.
  Status Upsert(MetaRecord record);
  Status Erase(SessionId session);

  // Coarse last_access checkpoint (S1 bugfix): a small frame that refreshes
  // only the session's recency, so post-recovery LRU order tracks real
  // access order instead of the last full upsert. Replay ignores
  // checkpoints for unknown sessions (an erase may follow the access in
  // the same journal).
  Status Access(SessionId session, std::int64_t last_access);

  // Rewrites the journal as a snapshot of live(). Called automatically past
  // compact_threshold_bytes; callable explicitly (recovery compacts once so
  // replay work is not repeated on the next open).
  Status Compact();

 private:
  MetaStore(std::string path, int fd, std::uint64_t block_bytes, Options options);

  // Replays superblock + entries from byte 0; truncates a torn tail.
  Status Replay();
  void ApplyUpsert(MetaRecord record, std::unordered_map<BlockId, SessionId>& owner);
  void ApplyErase(SessionId session, std::unordered_map<BlockId, SessionId>& owner);

  Status AppendFrame(std::span<const std::uint8_t> body);
  Status MaybeFsync();
  Status MaybeCompact();
  bool Frozen() const;

  const std::string path_;
  int fd_;  // swapped by Compact (rename replaces the journal file)
  const std::uint64_t block_bytes_;
  const Options options_;

  std::uint64_t store_id_ = 0;
  bool recovered_existing_ = false;
  std::uint64_t journal_bytes_ = 0;  // append offset == current file size
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t compactions_ = 0;

  std::unordered_map<SessionId, MetaRecord> live_;
  RecoveryStats recovery_stats_;
};

}  // namespace ca

#endif  // CA_STORE_META_STORE_H_
