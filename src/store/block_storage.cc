#include "src/store/block_storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace ca {

namespace {

// Persistent-mode superblock (DESIGN.md §15): one 4 KiB header region
// ahead of block 0. Fields are stored host-endian — the journal and
// payload file are a local pair, never shipped across architectures.
constexpr std::uint64_t kSuperblockBytes = 4096;
constexpr std::uint32_t kPayloadMagic = 0x50424143;  // "CABP"
// v2: every payload is a headerless token-major KV record (DESIGN.md §15).
constexpr std::uint32_t kPayloadVersion = 2;
// Byte layout: [0] magic u32, [4] version u32, [8] block_bytes u64,
// [16] capacity_bytes u64, [24] store_id u64, [32] Fnv1a64 over [0,32).
constexpr std::uint64_t kSuperblockPayloadBytes = 32;

void PutU32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void PutU64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Writes all of `data` at `offset`, resuming after short writes and EINTR.
Status PwriteAll(int fd, std::span<const std::uint8_t> data, std::uint64_t offset) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + written, data.size() - written,
                               static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Fills `out` from `offset`, resuming after short reads and EINTR. Returns
// the bytes read, fewer than out.size() only when the file ends first.
Result<std::size_t> PreadAll(int fd, std::span<std::uint8_t> out, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::pread(fd, out.data() + got, out.size() - got, static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

Status BlockStorage::AdoptExtent(const BlockExtent& extent) {
  (void)extent;
  return FailedPreconditionError("this storage backend cannot adopt extents");
}

Result<BlockExtent> PooledBlockStorage::Write(std::span<const std::uint8_t> bytes) {
  SpanSource source(bytes);
  return WriteZeroCopy(source);
}

Result<BlockExtent> PooledBlockStorage::WriteZeroCopy(PayloadSource& source) {
  const std::uint64_t byte_length = source.size();
  CA_TRACE_SPAN("io.write", "medium", trace_medium_, "bytes", byte_length);
  MutexLock lock(mutex_);
  const std::uint64_t n_blocks = allocator_.BlocksFor(byte_length);
  CA_ASSIGN_OR_RETURN(std::vector<BlockId> blocks, allocator_.Allocate(n_blocks));
  const Status s = WriteBlocksBatch(blocks, byte_length, source);
  if (!s.ok()) {
    allocator_.Free(blocks);
    return s;
  }
  return BlockExtent{.blocks = std::move(blocks), .byte_length = byte_length};
}

Result<std::vector<std::uint8_t>> PooledBlockStorage::Read(const BlockExtent& extent) {
  std::vector<std::uint8_t> out(extent.byte_length);
  CA_RETURN_IF_ERROR(ReadInto(extent, out));
  return out;
}

Status PooledBlockStorage::ReadInto(const BlockExtent& extent, std::span<std::uint8_t> out) {
  CA_TRACE_SPAN("io.read", "medium", trace_medium_, "bytes", extent.byte_length);
  MutexLock lock(mutex_);
  CA_RETURN_IF_ERROR(ValidateExtent(extent));
  if (out.size() != extent.byte_length) {
    return InvalidArgumentError("ReadInto buffer holds " + std::to_string(out.size()) +
                                " bytes, extent has " + std::to_string(extent.byte_length));
  }
  return ReadBlocksBatch(extent.blocks, out);
}

Status PooledBlockStorage::ReadZeroCopy(const BlockExtent& extent, PayloadSink& sink) {
  CA_TRACE_SPAN("io.read", "medium", trace_medium_, "bytes", extent.byte_length);
  MutexLock lock(mutex_);
  CA_RETURN_IF_ERROR(ValidateExtent(extent));
  return ReadBlocksStream(extent.blocks, extent.byte_length, sink);
}

Status PooledBlockStorage::ValidateExtent(const BlockExtent& extent) const {
  // A corrupted record can hand us an extent whose shape no longer matches
  // its byte length; that must surface as a handleable error (the store
  // degrades it to a miss), never as an abort or an out-of-bounds block read.
  if (allocator_.BlocksFor(extent.byte_length) != extent.blocks.size()) {
    return InternalError("malformed extent: " + std::to_string(extent.blocks.size()) +
                         " blocks cannot hold " + std::to_string(extent.byte_length) + " bytes");
  }
  for (const BlockId block : extent.blocks) {
    if (block >= allocator_.total_blocks()) {
      return InternalError("malformed extent: block " + std::to_string(block) +
                           " out of range (pool has " +
                           std::to_string(allocator_.total_blocks()) + ")");
    }
  }
  return Status::Ok();
}

Status PooledBlockStorage::WriteBlocksBatch(std::span<const BlockId> blocks,
                                            std::uint64_t byte_length, PayloadSource& source) {
  const std::uint64_t block_bytes = allocator_.block_bytes();
  if (scratch_.size() < block_bytes) {
    scratch_.resize(block_bytes);
  }
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, byte_length - off);
    const std::span<std::uint8_t> dest(scratch_.data(), chunk);
    source.Fill(dest);
    CA_RETURN_IF_ERROR(WriteBlock(block, dest));
    off += chunk;
  }
  return Status::Ok();
}

Status PooledBlockStorage::ReadBlocksBatch(std::span<const BlockId> blocks,
                                           std::span<std::uint8_t> out) {
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, out.size() - off);
    CA_RETURN_IF_ERROR(ReadBlock(block, out.subspan(off, chunk)));
    off += chunk;
  }
  return Status::Ok();
}

Status PooledBlockStorage::ReadBlocksStream(std::span<const BlockId> blocks,
                                            std::uint64_t byte_length, PayloadSink& sink) {
  const std::uint64_t block_bytes = allocator_.block_bytes();
  if (scratch_.size() < block_bytes) {
    scratch_.resize(block_bytes);
  }
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, byte_length - off);
    const std::span<std::uint8_t> staged(scratch_.data(), chunk);
    CA_RETURN_IF_ERROR(ReadBlock(block, staged));
    sink.Consume(staged);
    off += chunk;
  }
  return Status::Ok();
}

Status PooledBlockStorage::AdoptExtent(const BlockExtent& extent) {
  MutexLock lock(mutex_);
  CA_RETURN_IF_ERROR(ValidateExtent(extent));
  return allocator_.AllocateSpecific(extent.blocks);
}

void PooledBlockStorage::Free(BlockExtent& extent) {
  MutexLock lock(mutex_);
  allocator_.Free(extent.blocks);
  extent.blocks.clear();
  extent.byte_length = 0;
}

std::uint64_t PooledBlockStorage::UsedBlocks() const {
  MutexLock lock(mutex_);
  return allocator_.used_blocks();
}

std::uint64_t PooledBlockStorage::block_bytes() const {
  MutexLock lock(mutex_);
  return allocator_.block_bytes();
}

MemoryBlockStorage::MemoryBlockStorage(std::uint64_t capacity_bytes, std::uint64_t block_bytes)
    : PooledBlockStorage(capacity_bytes, block_bytes) {
  arena_.resize(allocator_.capacity_bytes());
}

Status MemoryBlockStorage::WriteBlock(BlockId block, std::span<const std::uint8_t> data) {
  CA_CHECK_LE(data.size(), allocator_.block_bytes());
  std::memcpy(BlockPtr(block), data.data(), data.size());
  return Status::Ok();
}

Status MemoryBlockStorage::ReadBlock(BlockId block, std::span<std::uint8_t> out) {
  CA_CHECK_LE(out.size(), allocator_.block_bytes());
  std::memcpy(out.data(), BlockPtr(block), out.size());
  return Status::Ok();
}

Status MemoryBlockStorage::WriteBlocksBatch(std::span<const BlockId> blocks,
                                            std::uint64_t byte_length, PayloadSource& source) {
  // Zero-copy: the producer serializes straight into arena memory.
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, byte_length - off);
    source.Fill(std::span<std::uint8_t>(BlockPtr(block), chunk));
    off += chunk;
  }
  return Status::Ok();
}

Status MemoryBlockStorage::ReadBlocksStream(std::span<const BlockId> blocks,
                                            std::uint64_t byte_length, PayloadSink& sink) {
  // Zero-copy: the consumer sees arena spans directly, block by block.
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (const BlockId block : blocks) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, byte_length - off);
    sink.Consume(std::span<const std::uint8_t>(BlockPtr(block), chunk));
    off += chunk;
  }
  return Status::Ok();
}

Result<std::unique_ptr<FileBlockStorage>> FileBlockStorage::Open(std::string path,
                                                                 std::uint64_t capacity_bytes,
                                                                 std::uint64_t block_bytes,
                                                                 DiskIoOptions io) {
  const bool reuse = io.persist && io.reuse_existing;
  int flags = O_RDWR | O_CREAT;
  if (!reuse) {
    flags |= O_TRUNC;
  }
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return IoError("cannot open " + path + ": " + std::strerror(errno));
  }

  if (io.persist) {
    // Validate or stamp the superblock.
    std::array<std::uint8_t, kSuperblockBytes> buf{};
    std::uint8_t* const sb = buf.data();
    const auto fail = [&](Status status) {
      ::close(fd);
      return status;
    };
    if (reuse) {
      const Result<std::size_t> got = PreadAll(fd, buf, 0);
      if (!got.ok()) {
        return fail(IoError(path + ": superblock read: " + got.status().message()));
      }
      if (*got < kSuperblockBytes) {
        return fail(FailedPreconditionError(
            path + ": payload file has no superblock (truncated or never created); "
                   "remove the metadata journal to start fresh"));
      }
      const std::span<const std::uint8_t> head(sb, kSuperblockPayloadBytes);
      if (Fnv1a64(head) != GetU64(sb + 32)) {
        return fail(FailedPreconditionError(path + ": payload superblock corrupt"));
      }
      if (GetU32(sb) != kPayloadMagic) {
        return fail(FailedPreconditionError(path + ": not a payload file (bad magic)"));
      }
      if (GetU32(sb + 4) != kPayloadVersion) {
        return fail(FailedPreconditionError(
            path + ": payload format version " + std::to_string(GetU32(sb + 4)) +
            ", this build expects " + std::to_string(kPayloadVersion)));
      }
      if (GetU64(sb + 8) != block_bytes) {
        return fail(FailedPreconditionError(
            path + ": payload written with block_bytes=" + std::to_string(GetU64(sb + 8)) +
            ", store configured with " + std::to_string(block_bytes)));
      }
      if (GetU64(sb + 24) != io.store_id) {
        return fail(FailedPreconditionError(
            path + ": payload store id does not match the metadata journal "
                   "(the pair was not created together)"));
      }
      // Stored capacity_bytes is informational: a shrunk pool simply makes
      // out-of-range recovered extents reconcile to clean misses.
    } else {
      PutU32(sb, kPayloadMagic);
      PutU32(sb + 4, kPayloadVersion);
      PutU64(sb + 8, block_bytes);
      PutU64(sb + 16, capacity_bytes);
      PutU64(sb + 24, io.store_id);
      PutU64(sb + 32, Fnv1a64(std::span<const std::uint8_t>(sb, kSuperblockPayloadBytes)));
      const Status wrote = PwriteAll(fd, buf, 0);
      if (!wrote.ok()) {
        return fail(IoError(path + ": superblock write: " + wrote.message()));
      }
      if (::fdatasync(fd) != 0) {
        return fail(IoError(path + ": superblock fdatasync: " + std::strerror(errno)));
      }
    }
  }

  return std::unique_ptr<FileBlockStorage>(
      // NOLINT(naked-new, cppcoreguidelines-owning-memory, modernize-make-unique): private ctor
      new FileBlockStorage(std::move(path), fd, capacity_bytes, block_bytes,  // NOLINT(naked-new)
                           io));
}

FileBlockStorage::FileBlockStorage(std::string path, int fd, std::uint64_t capacity_bytes,
                                   std::uint64_t block_bytes, const DiskIoOptions& io)
    : PooledBlockStorage(capacity_bytes, block_bytes),
      path_(std::move(path)),
      fd_(fd),
      persist_(io.persist),
      data_offset_(io.persist ? kSuperblockBytes : 0),
      store_id_(io.store_id),
      crash_(io.crash),
      crash_after_block_writes_(io.crash_after_block_writes) {
  trace_medium_ = "disk";
}

FileBlockStorage::~FileBlockStorage() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (!persist_) {
      ::unlink(path_.c_str());
    }
  }
}

Status FileBlockStorage::WriteBlock(BlockId block, std::span<const std::uint8_t> data) {
  CA_CHECK_LE(data.size(), allocator_.block_bytes());
  if (crash_ != nullptr) {
    if (crash_->frozen.load(std::memory_order_relaxed)) {
      return Status::Ok();  // post-crash: the bytes never reach the device
    }
    if (crash_after_block_writes_ > 0 &&
        ++crash_blocks_written_ >= crash_after_block_writes_) {
      // Simulated SIGKILL mid-extent: this is device write #N, which still
      // lands; every later block write is swallowed.
      crash_->frozen.store(true, std::memory_order_relaxed);
    }
  }
  return PwriteAll(fd_, data, BlockOffset(block));
}

Status FileBlockStorage::ReadBlock(BlockId block, std::span<std::uint8_t> out) {
  CA_CHECK_LE(out.size(), allocator_.block_bytes());
  CA_ASSIGN_OR_RETURN(const std::size_t got, PreadAll(fd_, out, BlockOffset(block)));
  if (got < out.size()) {
    return IoError("pread: unexpected EOF");
  }
  return Status::Ok();
}

}  // namespace ca
