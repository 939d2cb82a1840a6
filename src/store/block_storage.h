// Block-granular payload storage for one tier.
//
// BlockStorage is the abstract interface AttentionStore drives: write a
// record's bytes across fixed-size blocks, read them back given the block
// list, free the blocks. Implementations:
//  * PooledBlockStorage — the common allocator-backed base; block I/O is a
//    set of protected hooks (per-block plus whole-extent zero-copy variants).
//  * MemoryBlockStorage — heap arena (the DRAM / HBM tiers). Zero-copy I/O
//    fills/streams arena memory directly, no staging buffer.
//  * FileBlockStorage — one backing file (the disk tier of the
//    real-execution path), written and read block by block with pwrite and
//    pread through a one-block staging buffer. Opened through a fallible
//    factory (a missing backing file disables the tier, it never aborts the
//    process); ephemeral files are unlinked in the destructor, persistent
//    ones (DiskIoOptions::persist, the durable disk tier of DESIGN.md §15)
//    carry a versioned superblock and survive it.
//  * FaultInjectingBlockStorage (fault_injection.h) — decorator that injects
//    deterministic I/O faults for tests and the store hammer.
//
// Zero-copy protocol (DESIGN.md §14): WriteZeroCopy pulls the payload from a
// PayloadSource — successive Fill(dest) calls hand the producer destination
// windows that cover the record exactly once, in byte order, so a serializer
// writes straight into tier block memory (or the disk tier's block buffer)
// instead of a caller-side std::vector. ReadZeroCopy pushes the payload into
// a PayloadSink the same way. Both are restartable: the retry loop calls
// Reset() and replays the whole transfer.
//
// The simulator never attaches payload storage (capacity accounting only);
// the real-execution engine always does.
//
// Failure contract: Write/Read return Status for everything a caller can
// degrade gracefully — device errors (kIoError), transient unavailability
// (kUnavailable), malformed extents from corrupted metadata (kInternal) and
// pool exhaustion (kResourceExhausted). The KV cache is soft state, so
// AttentionStore turns any of these into a cache miss (DESIGN.md §10);
// aborting is reserved for in-process invariant violations.
//
// Thread safety: all public operations are individually thread-safe (one
// internal mutex serializes the allocator and the block I/O), so the
// asynchronous KV-save stream and IO threads may share one storage. Callers
// still coordinate *which* extents they touch: freeing an extent another
// thread is reading is a logic error the mutex cannot catch.
#ifndef CA_STORE_BLOCK_STORAGE_H_
#define CA_STORE_BLOCK_STORAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/store/block_allocator.h"
#include "src/store/types.h"

namespace ca {

// The blocks holding one record plus its exact byte length (the last block
// is generally partially filled).
struct BlockExtent {
  std::vector<BlockId> blocks;
  std::uint64_t byte_length = 0;

  bool empty() const { return blocks.empty(); }
};

// Sequential producer of a record's bytes (the zero-copy write protocol).
// The storage calls Fill with successive destination windows whose sizes
// sum to size(); the producer must fill each window completely.
class PayloadSource {
 public:
  virtual ~PayloadSource() = default;

  // Total payload bytes this source produces per pass.
  virtual std::uint64_t size() const = 0;

  // Restarts the cursor at byte 0 (bounded-retry writes replay the pass).
  virtual void Reset() = 0;

  // Produces the next dest.size() bytes into dest.
  virtual void Fill(std::span<std::uint8_t> dest) = 0;
};

// Sequential consumer of a record's bytes (the zero-copy read protocol).
// Chunks arrive in byte order and cover the record exactly once per pass.
// NOTE: chunks are streamed BEFORE the store's checksum verdict is known;
// a consumer must discard everything it built if the surrounding call
// returns non-OK (see AttentionStore::ReadPayloadInto).
class PayloadSink {
 public:
  virtual ~PayloadSink() = default;

  // Restarts the pass (bounded-retry reads replay the transfer).
  virtual void Reset() = 0;

  virtual void Consume(std::span<const std::uint8_t> chunk) = 0;
};

// PayloadSource over a contiguous caller buffer (adapts the legacy
// copy-path Write(span) onto the zero-copy spine).
class SpanSource final : public PayloadSource {
 public:
  explicit SpanSource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t size() const override { return bytes_.size(); }
  void Reset() override { offset_ = 0; }
  void Fill(std::span<std::uint8_t> dest) override {
    std::memcpy(dest.data(), bytes_.data() + offset_, dest.size());
    offset_ += dest.size();
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

class BlockStorage {
 public:
  BlockStorage() = default;
  virtual ~BlockStorage() = default;

  BlockStorage(const BlockStorage&) = delete;
  BlockStorage& operator=(const BlockStorage&) = delete;

  // Allocates blocks and writes `bytes` into them.
  virtual Result<BlockExtent> Write(std::span<const std::uint8_t> bytes) = 0;

  // Allocates blocks and pulls the payload from `source` (zero-copy write
  // path; see file comment). On failure no blocks stay allocated, but the
  // source may have been partially consumed — retries must Reset() it.
  virtual Result<BlockExtent> WriteZeroCopy(PayloadSource& source) = 0;

  // Reads a record back. A malformed extent (block count inconsistent with
  // byte_length, or out-of-range block ids) yields kInternal, not an abort:
  // corrupted record metadata must be handleable as a miss.
  virtual Result<std::vector<std::uint8_t>> Read(const BlockExtent& extent) = 0;

  // Reads a record into a caller-owned buffer of exactly extent.byte_length
  // bytes (bounded retries reuse one allocation). Same failure contract as
  // Read; `out` contents are unspecified after a failure.
  virtual Status ReadInto(const BlockExtent& extent, std::span<std::uint8_t> out) = 0;

  // Streams a record into `sink` (zero-copy read path). Memory-backed tiers
  // pass arena spans directly — no staging copy.
  virtual Status ReadZeroCopy(const BlockExtent& extent, PayloadSink& sink) = 0;

  // Claims the exact blocks of `extent` without touching the device
  // (recovery re-attaches extents that survived a restart; DESIGN.md §15).
  // Fails with kFailedPrecondition — claiming nothing — if any block is
  // unavailable or the extent shape is inconsistent with the pool. Backends
  // without an allocator reject every extent.
  virtual Status AdoptExtent(const BlockExtent& extent);

  // Releases a record's blocks. Pure metadata: never touches the device, so
  // it stays safe on a failed tier.
  virtual void Free(BlockExtent& extent) = 0;

  // Currently allocated block count (the invariant auditor cross-checks
  // this against the live records' extents).
  virtual std::uint64_t UsedBlocks() const = 0;

  virtual std::uint64_t block_bytes() const = 0;
};

// Allocator-backed storage base: owns the block pool and serializes all
// operations behind one mutex; concrete backends supply the block I/O.
class PooledBlockStorage : public BlockStorage {
 public:
  PooledBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes)
      : allocator_(capacity_bytes, block_bytes) {}

  Result<BlockExtent> Write(std::span<const std::uint8_t> bytes) override CA_EXCLUDES(mutex_);
  Result<BlockExtent> WriteZeroCopy(PayloadSource& source) override CA_EXCLUDES(mutex_);
  Result<std::vector<std::uint8_t>> Read(const BlockExtent& extent) override CA_EXCLUDES(mutex_);
  Status ReadInto(const BlockExtent& extent, std::span<std::uint8_t> out) override
      CA_EXCLUDES(mutex_);
  Status ReadZeroCopy(const BlockExtent& extent, PayloadSink& sink) override CA_EXCLUDES(mutex_);
  Status AdoptExtent(const BlockExtent& extent) override CA_EXCLUDES(mutex_);
  void Free(BlockExtent& extent) override CA_EXCLUDES(mutex_);
  std::uint64_t UsedBlocks() const override CA_EXCLUDES(mutex_);
  std::uint64_t block_bytes() const override CA_EXCLUDES(mutex_);

 protected:
  // Block I/O hooks; invoked with mutex_ held. `blocks` is the in-order
  // block list of one record, `byte_length` its exact size (the last block
  // is partial). Backends supply the per-block hooks; the whole-extent
  // hooks loop over them through a one-block staging buffer, and the
  // arena-backed tier overrides them to fill and stream block memory
  // directly.
  virtual Status WriteBlock(BlockId block, std::span<const std::uint8_t> data)
      CA_REQUIRES(mutex_) = 0;
  virtual Status ReadBlock(BlockId block, std::span<std::uint8_t> out) CA_REQUIRES(mutex_) = 0;

  virtual Status WriteBlocksBatch(std::span<const BlockId> blocks, std::uint64_t byte_length,
                                  PayloadSource& source) CA_REQUIRES(mutex_);
  Status ReadBlocksBatch(std::span<const BlockId> blocks, std::span<std::uint8_t> out)
      CA_REQUIRES(mutex_);
  virtual Status ReadBlocksStream(std::span<const BlockId> blocks, std::uint64_t byte_length,
                                  PayloadSink& sink) CA_REQUIRES(mutex_);

  // Rejects extents whose shape is inconsistent with the pool (kInternal).
  Status ValidateExtent(const BlockExtent& extent) const CA_REQUIRES(mutex_);

  mutable Mutex mutex_{"store.PooledBlockStorage"};
  BlockAllocator allocator_ CA_GUARDED_BY(mutex_);
  // One-block staging buffer for the default whole-extent hooks.
  std::vector<std::uint8_t> scratch_ CA_GUARDED_BY(mutex_);
  // Medium label on io.write/io.read trace spans; concrete backends override
  // at construction (immutable afterwards).
  const char* trace_medium_ = "mem";  // unguarded: set at construction only
};

class MemoryBlockStorage final : public PooledBlockStorage {
 public:
  MemoryBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes);

 protected:
  Status WriteBlock(BlockId block, std::span<const std::uint8_t> data)
      CA_REQUIRES(mutex_) override;
  Status ReadBlock(BlockId block, std::span<std::uint8_t> out) CA_REQUIRES(mutex_) override;
  // Zero-copy overrides: the source fills / the sink reads arena memory
  // directly, block by block.
  Status WriteBlocksBatch(std::span<const BlockId> blocks, std::uint64_t byte_length,
                          PayloadSource& source) CA_REQUIRES(mutex_) override;
  Status ReadBlocksStream(std::span<const BlockId> blocks, std::uint64_t byte_length,
                          PayloadSink& sink) CA_REQUIRES(mutex_) override;

 private:
  std::uint8_t* BlockPtr(BlockId block) CA_REQUIRES(mutex_) {
    return arena_.data() + static_cast<std::uint64_t>(block) * allocator_.block_bytes();
  }

  std::vector<std::uint8_t> arena_ CA_GUARDED_BY(mutex_);
};

struct DiskIoOptions {
  // --- durability (DESIGN.md §15) ---------------------------------------
  // Keep the backing file on destruction and stamp a versioned superblock
  // into a 4 KiB header region ahead of block 0 (all block offsets shift by
  // that region). Ephemeral stores (the default) stay headerless and are
  // unlinked in the destructor, exactly as before.
  bool persist = false;
  // Open an existing backing file instead of truncating. The superblock
  // must match (magic, format version, block_bytes, store_id) or Open fails
  // with kFailedPrecondition. Requires persist.
  bool reuse_existing = false;
  // Identity stamped into a fresh superblock / required of a reused one
  // (pairs the payload file with its metadata journal).
  std::uint64_t store_id = 0;

  // --- crash schedule (tests; DESIGN.md §15) ----------------------------
  // With a switch attached: once frozen, writes are swallowed before they
  // reach the file (the in-memory allocator and record table stay coherent
  // — recovery reconciles). When crash_after_block_writes = N > 0,
  // device-block writes 1..N land and write #N then freezes the switch, so
  // an extent spanning it lands torn at that block boundary. The source is
  // still consumed in full either way.
  std::shared_ptr<CrashSwitch> crash;
  std::uint64_t crash_after_block_writes = 0;
};

class FileBlockStorage final : public PooledBlockStorage {
 public:
  // Creates/truncates `path` (or re-opens it when io.persist &&
  // io.reuse_existing). Fails with kIoError if the file cannot be opened —
  // callers (AttentionStore) disable the tier instead of crashing — and
  // with kFailedPrecondition when a reused superblock disagrees with the
  // requested identity (wrong format version, block size, or store id).
  static Result<std::unique_ptr<FileBlockStorage>> Open(std::string path,
                                                        std::uint64_t capacity_bytes,
                                                        std::uint64_t block_bytes,
                                                        DiskIoOptions io = {});
  ~FileBlockStorage() override;

  const std::string& path() const { return path_; }
  bool persist() const { return persist_; }
  std::uint64_t store_id() const { return store_id_; }

 protected:
  Status WriteBlock(BlockId block, std::span<const std::uint8_t> data)
      CA_REQUIRES(mutex_) override;
  Status ReadBlock(BlockId block, std::span<std::uint8_t> out) CA_REQUIRES(mutex_) override;

 private:
  FileBlockStorage(std::string path, int fd, std::uint64_t capacity_bytes,
                   std::uint64_t block_bytes, const DiskIoOptions& io);

  std::uint64_t BlockOffset(BlockId block) const CA_REQUIRES(mutex_) {
    return data_offset_ + static_cast<std::uint64_t>(block) * allocator_.block_bytes();
  }

  const std::string path_;          // immutable after construction
  const int fd_;                    // immutable after construction
  const bool persist_;              // immutable after construction
  const std::uint64_t data_offset_; // immutable: superblock region (0 when ephemeral)
  const std::uint64_t store_id_;    // immutable after construction

  // Crash schedule (tests; see DiskIoOptions). The switch itself is atomic;
  // the write counter is only touched under mutex_.
  const std::shared_ptr<CrashSwitch> crash_;  // immutable after construction
  const std::uint64_t crash_after_block_writes_;  // immutable after construction
  std::uint64_t crash_blocks_written_ CA_GUARDED_BY(mutex_) = 0;
};

}  // namespace ca

#endif  // CA_STORE_BLOCK_STORAGE_H_
