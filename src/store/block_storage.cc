#include "src/store/block_storage.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/obs/trace.h"
#include "src/store/uring_io.h"

namespace ca {

namespace {

// O_DIRECT DMA granule: offsets, lengths and buffer addresses must be
// multiples of this (4 KiB covers every modern logical block size).
constexpr std::uint64_t kDirectAlign = 4096;

// iovecs per batched submission run (IOV_MAX is 1024 on Linux).
constexpr std::size_t kMaxIovPerRun = 1024;

constexpr std::uint64_t RoundUpDirect(std::uint64_t n) {
  return (n + kDirectAlign - 1) / kDirectAlign * kDirectAlign;
}

// Persistent-mode superblock (DESIGN.md §15): one O_DIRECT-sized header
// region ahead of block 0. Fields are stored host-endian — the journal and
// payload file are a local pair, never shipped across architectures.
constexpr std::uint64_t kSuperblockBytes = kDirectAlign;
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
  // Portable fallback: stage the whole extent, hand it over as one chunk.
  // Arena-backed tiers override this to stream block spans directly.
  if (scratch_.size() < byte_length) {
    scratch_.resize(byte_length);
  }
  const std::span<std::uint8_t> staged(scratch_.data(), byte_length);
  CA_RETURN_IF_ERROR(ReadBlocksBatch(blocks, staged));
  sink.Consume(staged);
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

void FileBlockStorage::AlignedDeleter::operator()(std::uint8_t* p) const {
  std::free(p);  // NOLINT(cppcoreguidelines-owning-memory): posix_memalign pair
}

Result<std::unique_ptr<FileBlockStorage>> FileBlockStorage::Open(std::string path,
                                                                 std::uint64_t capacity_bytes,
                                                                 std::uint64_t block_bytes,
                                                                 DiskIoOptions io) {
  bool direct = io.direct_io && block_bytes % kDirectAlign == 0;
  const bool reuse = io.persist && io.reuse_existing;
  int flags = O_RDWR | O_CREAT;
  if (!reuse) {
    flags |= O_TRUNC;
  }
  int fd = -1;
  if (direct) {
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    if (fd < 0) {
      direct = false;  // tmpfs & friends reject O_DIRECT: fall back to buffered
    }
  }
  if (fd < 0) {
    fd = ::open(path.c_str(), flags, 0644);
  }
  if (fd < 0) {
    return IoError("cannot open " + path + ": " + std::strerror(errno));
  }

  if (io.persist) {
    // Validate or stamp the superblock through an O_DIRECT-compatible
    // aligned buffer.
    void* raw = nullptr;
    if (::posix_memalign(&raw, kDirectAlign, kSuperblockBytes) != 0) {
      ::close(fd);
      return ResourceExhaustedError("cannot allocate superblock buffer");
    }
    const std::unique_ptr<std::uint8_t[], AlignedDeleter> sb(static_cast<std::uint8_t*>(raw));
    const auto fail = [&](Status status) {
      ::close(fd);
      return status;
    };
    if (reuse) {
      std::size_t got = 0;
      while (got < kSuperblockBytes) {
        const ssize_t n = ::pread(fd, sb.get() + got, kSuperblockBytes - got,
                                  static_cast<off_t>(got));
        if (n < 0) {
          return fail(IoError(path + ": superblock read: " + std::strerror(errno)));
        }
        if (n == 0) {
          return fail(FailedPreconditionError(
              path + ": payload file has no superblock (truncated or never created); "
                     "remove the metadata journal to start fresh"));
        }
        got += static_cast<std::size_t>(n);
      }
      const std::span<const std::uint8_t> head(sb.get(), kSuperblockPayloadBytes);
      if (Fnv1a64(head) != GetU64(sb.get() + 32)) {
        return fail(FailedPreconditionError(path + ": payload superblock corrupt"));
      }
      if (GetU32(sb.get()) != kPayloadMagic) {
        return fail(FailedPreconditionError(path + ": not a payload file (bad magic)"));
      }
      if (GetU32(sb.get() + 4) != kPayloadVersion) {
        return fail(FailedPreconditionError(
            path + ": payload format version " + std::to_string(GetU32(sb.get() + 4)) +
            ", this build expects " + std::to_string(kPayloadVersion)));
      }
      if (GetU64(sb.get() + 8) != block_bytes) {
        return fail(FailedPreconditionError(
            path + ": payload written with block_bytes=" + std::to_string(GetU64(sb.get() + 8)) +
            ", store configured with " + std::to_string(block_bytes)));
      }
      if (GetU64(sb.get() + 24) != io.store_id) {
        return fail(FailedPreconditionError(
            path + ": payload store id does not match the metadata journal "
                   "(the pair was not created together)"));
      }
      // Stored capacity_bytes is informational: a shrunk pool simply makes
      // out-of-range recovered extents reconcile to clean misses.
    } else {
      std::memset(sb.get(), 0, kSuperblockBytes);
      PutU32(sb.get(), kPayloadMagic);
      PutU32(sb.get() + 4, kPayloadVersion);
      PutU64(sb.get() + 8, block_bytes);
      PutU64(sb.get() + 16, capacity_bytes);
      PutU64(sb.get() + 24, io.store_id);
      PutU64(sb.get() + 32, Fnv1a64(std::span<const std::uint8_t>(sb.get(),
                                                                  kSuperblockPayloadBytes)));
      std::size_t written = 0;
      while (written < kSuperblockBytes) {
        const ssize_t n = ::pwrite(fd, sb.get() + written, kSuperblockBytes - written,
                                   static_cast<off_t>(written));
        if (n < 0) {
          return fail(IoError(path + ": superblock write: " + std::strerror(errno)));
        }
        written += static_cast<std::size_t>(n);
      }
      if (::fdatasync(fd) != 0) {
        return fail(IoError(path + ": superblock fdatasync: " + std::strerror(errno)));
      }
    }
  }

  // Resolve the submission strategy. kAuto/kUring probe the kernel once at
  // open; a refused ring (old kernel, seccomp) degrades to pwritev/preadv
  // batching. O_DIRECT transfers stage through the aligned buffer, which the
  // per-block sync path cannot use, so direct I/O forces a batched mode.
  DiskIoMode mode = io.mode;
  std::unique_ptr<UringQueue> uring;
  if (mode == DiskIoMode::kAuto || mode == DiskIoMode::kUring) {
    uring = UringQueue::TryCreate(64);
    mode = uring != nullptr ? DiskIoMode::kUring : DiskIoMode::kBatched;
  }
  if (direct && mode == DiskIoMode::kSync) {
    mode = DiskIoMode::kBatched;
  }
  return std::unique_ptr<FileBlockStorage>(
      // NOLINT(naked-new, cppcoreguidelines-owning-memory, modernize-make-unique): private ctor
      new FileBlockStorage(std::move(path), fd, capacity_bytes, block_bytes,  // NOLINT(naked-new)
                           mode, direct, std::move(uring), io));
}

FileBlockStorage::FileBlockStorage(std::string path, int fd, std::uint64_t capacity_bytes,
                                   std::uint64_t block_bytes, DiskIoMode mode, bool direct,
                                   std::unique_ptr<UringQueue> uring, const DiskIoOptions& io)
    : PooledBlockStorage(capacity_bytes, block_bytes),
      path_(std::move(path)),
      fd_(fd),
      direct_io_(direct),
      persist_(io.persist),
      data_offset_(io.persist ? kSuperblockBytes : 0),
      store_id_(io.store_id),
      io_mode_(mode),
      uring_(std::move(uring)),
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
  const auto offset = static_cast<off_t>(
      data_offset_ + static_cast<std::uint64_t>(block) * allocator_.block_bytes());
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + written, data.size() - written,
                               offset + static_cast<off_t>(written));
    if (n < 0) {
      return IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockStorage::ReadBlock(BlockId block, std::span<std::uint8_t> out) {
  CA_CHECK_LE(out.size(), allocator_.block_bytes());
  const auto offset = static_cast<off_t>(
      data_offset_ + static_cast<std::uint64_t>(block) * allocator_.block_bytes());
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::pread(fd_, out.data() + got, out.size() - got, offset + static_cast<off_t>(got));
    if (n < 0) {
      return IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return IoError("pread: unexpected EOF");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockStorage::EnsureAligned(std::uint64_t bytes) {
  if (aligned_bytes_ >= bytes) {
    return Status::Ok();
  }
  std::uint64_t grown = std::max<std::uint64_t>(aligned_bytes_ * 2, kDirectAlign);
  grown = std::max(grown, RoundUpDirect(bytes));
  void* p = nullptr;
  if (::posix_memalign(&p, kDirectAlign, grown) != 0) {
    return ResourceExhaustedError("cannot allocate " + std::to_string(grown) +
                                  " aligned staging bytes");
  }
  aligned_.reset(static_cast<std::uint8_t*>(p));
  aligned_bytes_ = grown;
  return Status::Ok();
}

Status FileBlockStorage::WriteBlocksBatch(std::span<const BlockId> blocks,
                                          std::uint64_t byte_length, PayloadSource& source) {
  if (io_mode_ == DiskIoMode::kSync && crash_ == nullptr) {
    // With a crash schedule attached even kSync stages below: the source
    // must always be consumed in full (a HashingSource folds the in-memory
    // record checksum as it fills), while only the device submission is
    // truncated or skipped.
    return PooledBlockStorage::WriteBlocksBatch(blocks, byte_length, source);
  }
  // Stage the payload contiguously in the aligned buffer (one Fill per block,
  // so a hashing source checksums each block while it is cache-hot), zero the
  // O_DIRECT tail pad, then submit every contiguous block run in one batch.
  const std::uint64_t staged = direct_io_ ? RoundUpDirect(byte_length) : byte_length;
  CA_RETURN_IF_ERROR(EnsureAligned(staged));
  const std::uint64_t block_bytes = allocator_.block_bytes();
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, byte_length - off);
    source.Fill(std::span<std::uint8_t>(aligned_.get() + off, chunk));
    off += chunk;
  }
  if (staged > byte_length) {
    std::memset(aligned_.get() + byte_length, 0, staged - byte_length);
  }
  std::span<const BlockId> submit = blocks;
  std::uint64_t submit_bytes = staged;
  if (crash_ != nullptr) {
    if (crash_->frozen.load(std::memory_order_relaxed)) {
      return Status::Ok();  // post-crash: the bytes never reach the device
    }
    if (crash_after_block_writes_ > 0) {
      const std::uint64_t before = crash_blocks_written_;
      crash_blocks_written_ += blocks.size();
      if (crash_blocks_written_ >= crash_after_block_writes_) {
        // Simulated SIGKILL mid-extent: blocks up to device write #N land,
        // the rest never reach the file, and everything after is frozen.
        const std::uint64_t allowed = crash_after_block_writes_ - before;
        crash_->frozen.store(true, std::memory_order_relaxed);
        submit = blocks.first(static_cast<std::size_t>(allowed));
        submit_bytes = std::min<std::uint64_t>(byte_length, allowed * block_bytes);
        if (direct_io_) {
          submit_bytes = RoundUpDirect(submit_bytes);
        }
      }
    }
  }
  if (submit.empty()) {
    return Status::Ok();
  }
  return SubmitRuns(submit, std::span<std::uint8_t>(aligned_.get(), submit_bytes),
                    /*is_write=*/true);
}

Status FileBlockStorage::ReadBlocksBatch(std::span<const BlockId> blocks,
                                         std::span<std::uint8_t> out) {
  if (io_mode_ == DiskIoMode::kSync) {
    return PooledBlockStorage::ReadBlocksBatch(blocks, out);
  }
  if (!direct_io_) {
    // Buffered batched read lands directly in the caller's buffer.
    return SubmitRuns(blocks, out, /*is_write=*/false);
  }
  const std::uint64_t staged = RoundUpDirect(out.size());
  CA_RETURN_IF_ERROR(EnsureAligned(staged));
  CA_RETURN_IF_ERROR(
      SubmitRuns(blocks, std::span<std::uint8_t>(aligned_.get(), staged), /*is_write=*/false));
  std::memcpy(out.data(), aligned_.get(), out.size());
  return Status::Ok();
}

namespace {

// Drives one vectored transfer to completion, advancing the iovec window
// across partial transfers (pwritev/preadv may stop at any boundary).
Status VectoredTransfer(int fd, const UringQueue::Op& op) {
  std::vector<iovec> iov(op.iov, op.iov + op.iov_count);
  std::size_t idx = 0;
  auto offset = static_cast<off_t>(op.offset);
  std::uint64_t remaining = op.expected_bytes;
  while (remaining > 0) {
    const int count = static_cast<int>(iov.size() - idx);
    const ssize_t n = op.write ? ::pwritev(fd, iov.data() + idx, count, offset)
                               : ::preadv(fd, iov.data() + idx, count, offset);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string(op.write ? "pwritev: " : "preadv: ") + std::strerror(errno));
    }
    if (n == 0 && !op.write) {
      return IoError("preadv: unexpected EOF");
    }
    offset += static_cast<off_t>(n);
    remaining -= static_cast<std::uint64_t>(n);
    auto advance = static_cast<std::size_t>(n);
    while (advance > 0) {
      if (advance >= iov[idx].iov_len) {
        advance -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + advance;
        iov[idx].iov_len -= advance;
        advance = 0;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status FileBlockStorage::SubmitRuns(std::span<const BlockId> blocks,
                                    std::span<std::uint8_t> buffer, bool is_write) {
  const std::uint64_t block_bytes = allocator_.block_bytes();
  // One iovec per block; runs of consecutive block ids collapse into a single
  // vectored submission at the run's file offset. Reserve up front: ops keep
  // pointers into `iov`, so it must never reallocate.
  std::vector<iovec> iov;
  iov.reserve(blocks.size());
  std::vector<UringQueue::Op> ops;
  std::uint64_t mem_off = 0;
  std::size_t i = 0;
  while (i < blocks.size()) {
    std::size_t j = i;
    while (j + 1 < blocks.size() && blocks[j + 1] == blocks[j] + 1 &&
           (j + 1 - i) < kMaxIovPerRun) {
      ++j;
    }
    const std::size_t iov_begin = iov.size();
    std::uint64_t run_bytes = 0;
    for (std::size_t k = i; k <= j; ++k) {
      const std::uint64_t chunk = std::min<std::uint64_t>(block_bytes, buffer.size() - mem_off);
      iov.push_back(iovec{.iov_base = buffer.data() + mem_off, .iov_len = chunk});
      mem_off += chunk;
      run_bytes += chunk;
    }
    ops.push_back(UringQueue::Op{.write = is_write,
                                 .offset = data_offset_ +
                                           static_cast<std::uint64_t>(blocks[i]) * block_bytes,
                                 .iov = iov.data() + iov_begin,
                                 .iov_count = static_cast<unsigned>(iov.size() - iov_begin),
                                 .expected_bytes = run_bytes});
    i = j + 1;
  }
  CA_TRACE_SPAN("io.batch", "dir", is_write ? "write" : "read", "runs", ops.size(), "blocks",
                blocks.size(), "uring", io_mode_ == DiskIoMode::kUring ? 1 : 0);
  if (io_mode_ == DiskIoMode::kUring && uring_ != nullptr) {
    return uring_->SubmitAndWait(fd_, ops);
  }
  for (const UringQueue::Op& op : ops) {
    CA_RETURN_IF_ERROR(VectoredTransfer(fd_, op));
  }
  return Status::Ok();
}

}  // namespace ca
