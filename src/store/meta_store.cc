#include "src/store/meta_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ca {

namespace {

// Journal superblock, 64 bytes at offset 0. Host-endian: journal and
// payload are a local pair, never shipped across architectures.
// Layout: [0] magic u32, [4] version u32, [8] block_bytes u64,
// [16] store_id u64, [24] Fnv1a64 over [0,24), [32..64) zero.
constexpr std::uint64_t kSuperblockBytes = 64;
constexpr std::uint64_t kSuperblockPayloadBytes = 24;
constexpr std::uint32_t kJournalMagic = 0x4A4D4143;  // "CAMJ"
// v2: upsert bodies carry the block table (chunk_refs), and the
// access-checkpoint entry kind exists (DESIGN.md §17). v3: the payload
// format flag is gone — every record is token-major (DESIGN.md §15).
constexpr std::uint32_t kJournalVersion = 3;

// Entry frame: [u32 body_len][u64 Fnv1a64(body)][body].
constexpr std::uint64_t kFrameHeaderBytes = 12;
// Body size sanity bound — anything larger is a corrupt length field, not a
// real entry (records are session-sized, far below this).
constexpr std::uint64_t kMaxEntryBytes = 256ULL * 1024 * 1024;

constexpr std::uint8_t kEntryUpsert = 1;
constexpr std::uint8_t kEntryErase = 2;
// Coarse last_access checkpoint: [u64 session][i64 last_access]. Purely a
// recency refresh — never creates or resurrects a record.
constexpr std::uint8_t kEntryAccess = 3;

class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }
  void Bytes(std::span<const std::uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  std::vector<std::uint8_t>& data() { return buf_; }

 private:
  void Raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t U8() { return Read<std::uint8_t>(); }
  std::uint32_t U32() { return Read<std::uint32_t>(); }
  std::uint64_t U64() { return Read<std::uint64_t>(); }
  std::int64_t I64() { return Read<std::int64_t>(); }

  bool Bytes(std::size_t n, std::vector<std::uint8_t>& out) {
    if (buf_.size() - off_ < n) {
      ok_ = false;
      return false;
    }
    out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(off_),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_ + n));
    off_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && off_ == buf_.size(); }

 private:
  template <typename T>
  T Read() {
    T v{};
    if (!ok_ || buf_.size() - off_ < sizeof(T)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, buf_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

void EncodeUpsert(const MetaRecord& rec, ByteWriter& w) {
  w.U8(kEntryUpsert);
  w.U64(rec.session);
  w.U8(static_cast<std::uint8_t>(rec.tier));
  w.U64(rec.bytes);
  w.U64(rec.token_count);
  w.I64(rec.last_access);
  w.U64(rec.insert_seq);
  w.U64(rec.checksum);
  w.U32(static_cast<std::uint32_t>(rec.blocks.size()));
  for (const BlockId b : rec.blocks) {
    w.U32(b);
  }
  w.U32(static_cast<std::uint32_t>(rec.user_meta.size()));
  w.Bytes(rec.user_meta);
  w.U32(static_cast<std::uint32_t>(rec.chunk_refs.size()));
  for (const SessionId ref : rec.chunk_refs) {
    w.U64(ref);
  }
}

// Decodes an upsert body after its type byte; false on any malformation.
bool DecodeUpsert(ByteReader& r, MetaRecord& rec) {
  rec.session = r.U64();
  const std::uint8_t tier = r.U8();
  rec.bytes = r.U64();
  rec.token_count = r.U64();
  rec.last_access = r.I64();
  rec.insert_seq = r.U64();
  rec.checksum = r.U64();
  const std::uint32_t n_blocks = r.U32();
  if (!r.ok() || tier > static_cast<std::uint8_t>(Tier::kNone)) {
    return false;
  }
  rec.tier = static_cast<Tier>(tier);
  rec.blocks.clear();
  rec.blocks.reserve(n_blocks);
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    rec.blocks.push_back(r.U32());
  }
  const std::uint32_t meta_len = r.U32();
  if (!r.ok() || !r.Bytes(meta_len, rec.user_meta)) {
    return false;
  }
  const std::uint32_t n_refs = r.U32();
  if (!r.ok()) {
    return false;
  }
  rec.chunk_refs.clear();
  rec.chunk_refs.reserve(n_refs);
  for (std::uint32_t i = 0; i < n_refs; ++i) {
    rec.chunk_refs.push_back(r.U64());
  }
  return r.AtEnd();
}

Status PwriteAll(int fd, const std::uint8_t* data, std::uint64_t n, std::uint64_t offset) {
  std::uint64_t written = 0;
  while (written < n) {
    const ssize_t r =
        ::pwrite(fd, data + written, n - written, static_cast<off_t>(offset + written));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("journal pwrite: ") + std::strerror(errno));
    }
    written += static_cast<std::uint64_t>(r);
  }
  return Status::Ok();
}

void PutU32At(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void PutU64At(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }
std::uint32_t GetU32At(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t GetU64At(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void FillSuperblock(std::uint8_t* sb, std::uint64_t block_bytes, std::uint64_t store_id) {
  std::memset(sb, 0, kSuperblockBytes);
  PutU32At(sb, kJournalMagic);
  PutU32At(sb + 4, kJournalVersion);
  PutU64At(sb + 8, block_bytes);
  PutU64At(sb + 16, store_id);
  PutU64At(sb + 24,
           Fnv1a64(std::span<const std::uint8_t>(sb, kSuperblockPayloadBytes)));
}

}  // namespace

MetaStore::MetaStore(std::string path, int fd, std::uint64_t block_bytes, Options options)
    : path_(std::move(path)), fd_(fd), block_bytes_(block_bytes), options_(std::move(options)) {}

MetaStore::~MetaStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<std::unique_ptr<MetaStore>> MetaStore::Open(std::string path, std::uint64_t block_bytes,
                                                   std::uint64_t fresh_store_id, Options options) {
  // A stale snapshot tmp is an abandoned compaction (crash before rename):
  // the journal file is authoritative, the tmp is garbage.
  ::unlink((path + ".tmp").c_str());

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return IoError("cannot open journal " + path + ": " + std::strerror(errno));
  }
  std::unique_ptr<MetaStore> store(
      // NOLINT(cppcoreguidelines-owning-memory, modernize-make-unique): private ctor
      new MetaStore(std::move(path), fd, block_bytes, std::move(options)));  // NOLINT(naked-new)
  CA_RETURN_IF_ERROR(store->Replay());
  if (!store->recovered_existing_) {
    store->store_id_ = fresh_store_id;
    std::uint8_t sb[kSuperblockBytes];
    FillSuperblock(sb, block_bytes, fresh_store_id);
    CA_RETURN_IF_ERROR(PwriteAll(fd, sb, kSuperblockBytes, 0));
    if (::ftruncate(fd, static_cast<off_t>(kSuperblockBytes)) != 0) {
      return IoError(std::string("journal ftruncate: ") + std::strerror(errno));
    }
    store->journal_bytes_ = kSuperblockBytes;
    if (store->options_.fsync != MetaFsyncPolicy::kNone && ::fdatasync(fd) != 0) {
      return IoError(std::string("journal fdatasync: ") + std::strerror(errno));
    }
  }
  return store;
}

Status MetaStore::Replay() {
  const std::uint64_t start_ns = TraceNowNs();
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    return IoError(std::string("journal lseek: ") + std::strerror(errno));
  }
  const auto size = static_cast<std::uint64_t>(end);
  if (size < kSuperblockBytes) {
    // Empty file, or a crash tore the superblock write itself: nothing was
    // ever journaled, so this is a fresh store (Open stamps the header).
    if (size > 0) {
      recovery_stats_.torn_tail_bytes += size;
    }
    recovered_existing_ = false;
    return Status::Ok();
  }

  std::vector<std::uint8_t> data(size);
  std::uint64_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd_, data.data() + got, size - got, static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(std::string("journal pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return IoError("journal pread: unexpected EOF");
    }
    got += static_cast<std::uint64_t>(n);
  }

  const std::span<const std::uint8_t> head(data.data(), kSuperblockPayloadBytes);
  if (Fnv1a64(head) != GetU64At(data.data() + 24)) {
    // A corrupt superblock means the journal's identity is gone and the
    // payload pairing cannot be re-established. The KV cache is soft state:
    // start fresh (everything becomes a clean miss) rather than refuse to
    // serve. Version/size mismatches below, by contrast, are configuration
    // errors and DO fail the open.
    CA_LOG(Warn) << path_ << ": journal superblock corrupt; discarding "
                 << size << " bytes and starting fresh";
    recovery_stats_.torn_tail_bytes += size;
    recovered_existing_ = false;
    return Status::Ok();
  }
  if (GetU32At(data.data()) != kJournalMagic) {
    return FailedPreconditionError(path_ + ": not a CachedAttention metadata journal");
  }
  if (GetU32At(data.data() + 4) != kJournalVersion) {
    return FailedPreconditionError(
        path_ + ": journal format version " + std::to_string(GetU32At(data.data() + 4)) +
        ", this build writes " + std::to_string(kJournalVersion));
  }
  if (GetU64At(data.data() + 8) != block_bytes_) {
    return FailedPreconditionError(
        path_ + ": journal written with block_bytes=" + std::to_string(GetU64At(data.data() + 8)) +
        ", store configured with " + std::to_string(block_bytes_));
  }
  store_id_ = GetU64At(data.data() + 16);
  recovered_existing_ = true;

  // Replay entries in order; ownership conflicts resolve newest-wins.
  std::unordered_map<BlockId, SessionId> owner;
  std::uint64_t off = kSuperblockBytes;
  bool torn = false;
  while (off < size) {
    if (size - off < kFrameHeaderBytes) {
      torn = true;
      break;
    }
    const std::uint64_t body_len = GetU32At(data.data() + off);
    const std::uint64_t body_sum = GetU64At(data.data() + off + 4);
    if (body_len == 0 || body_len > kMaxEntryBytes || size - off - kFrameHeaderBytes < body_len) {
      torn = true;
      break;
    }
    const std::span<const std::uint8_t> body(data.data() + off + kFrameHeaderBytes, body_len);
    if (Fnv1a64(body) != body_sum) {
      torn = true;
      break;
    }
    ByteReader r(body);
    const std::uint8_t type = r.U8();
    if (type == kEntryUpsert) {
      MetaRecord rec;
      if (!DecodeUpsert(r, rec)) {
        torn = true;
        break;
      }
      ApplyUpsert(std::move(rec), owner);
    } else if (type == kEntryErase) {
      const SessionId session = r.U64();
      if (!r.ok() || !r.AtEnd()) {
        torn = true;
        break;
      }
      ApplyErase(session, owner);
    } else if (type == kEntryAccess) {
      const SessionId session = r.U64();
      const std::int64_t last_access = r.I64();
      if (!r.ok() || !r.AtEnd()) {
        torn = true;
        break;
      }
      // Recency refresh only: a checkpoint for a session that was since
      // erased (or never upserted) is simply stale, not damage.
      const auto it = live_.find(session);
      if (it != live_.end()) {
        it->second.last_access = last_access;
      }
    } else {
      torn = true;
      break;
    }
    ++recovery_stats_.journal_entries_replayed;
    off += kFrameHeaderBytes + body_len;
  }
  if (torn) {
    // Crash mid-append: everything from the first unreadable frame on is
    // discarded as a clean miss, and the file is cut back so the next
    // append starts at a valid frame boundary.
    recovery_stats_.records_discarded_torn += 1;
    recovery_stats_.torn_tail_bytes += size - off;
    if (::ftruncate(fd_, static_cast<off_t>(off)) != 0) {
      return IoError(std::string("journal ftruncate: ") + std::strerror(errno));
    }
  }
  journal_bytes_ = off;

  // Memory-tier finals died with the process.
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->second.tier != Tier::kDisk) {
      ++recovery_stats_.records_discarded_volatile;
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
  recovery_stats_.replay_ns += TraceNowNs() - start_ns;
  return Status::Ok();
}

void MetaStore::ApplyUpsert(MetaRecord record, std::unordered_map<BlockId, SessionId>& owner) {
  ApplyErase(record.session, owner);
  // A newer entry claiming an older record's blocks means those blocks were
  // freed and rewritten after the older entry was journaled: the older
  // payload is gone, so the older record is dropped (a clean miss).
  std::vector<SessionId> losers;
  for (const BlockId b : record.blocks) {
    const auto it = owner.find(b);
    if (it != owner.end()) {
      losers.push_back(it->second);
    }
  }
  std::sort(losers.begin(), losers.end());
  losers.erase(std::unique(losers.begin(), losers.end()), losers.end());
  for (const SessionId loser : losers) {
    ApplyErase(loser, owner);
    ++recovery_stats_.records_conflict_dropped;
  }
  for (const BlockId b : record.blocks) {
    owner[b] = record.session;
  }
  live_[record.session] = std::move(record);
}

void MetaStore::ApplyErase(SessionId session, std::unordered_map<BlockId, SessionId>& owner) {
  const auto it = live_.find(session);
  if (it == live_.end()) {
    return;
  }
  for (const BlockId b : it->second.blocks) {
    const auto o = owner.find(b);
    if (o != owner.end() && o->second == session) {
      owner.erase(o);
    }
  }
  live_.erase(it);
}

const std::vector<std::uint8_t>* MetaStore::UserMeta(SessionId session) const {
  const auto it = live_.find(session);
  return it == live_.end() ? nullptr : &it->second.user_meta;
}

bool MetaStore::Frozen() const {
  return options_.fault.armed() &&
         options_.fault.crash->frozen.load(std::memory_order_relaxed);
}

Status MetaStore::Upsert(MetaRecord record) {
  ByteWriter w;
  EncodeUpsert(record, w);
  live_[record.session] = std::move(record);
  CA_RETURN_IF_ERROR(AppendFrame(w.data()));
  return MaybeCompact();
}

Status MetaStore::Access(SessionId session, std::int64_t last_access) {
  const auto it = live_.find(session);
  if (it == live_.end()) {
    return Status::Ok();
  }
  it->second.last_access = last_access;
  ByteWriter w;
  w.U8(kEntryAccess);
  w.U64(session);
  w.I64(last_access);
  CA_RETURN_IF_ERROR(AppendFrame(w.data()));
  return MaybeCompact();
}

Status MetaStore::Erase(SessionId session) {
  const auto it = live_.find(session);
  if (it == live_.end()) {
    return Status::Ok();
  }
  live_.erase(it);
  ByteWriter w;
  w.U8(kEntryErase);
  w.U64(session);
  CA_RETURN_IF_ERROR(AppendFrame(w.data()));
  return MaybeCompact();
}

Status MetaStore::AppendFrame(std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + body.size());
  PutU32At(frame.data(), static_cast<std::uint32_t>(body.size()));
  PutU64At(frame.data() + 4, Fnv1a64(body));
  std::memcpy(frame.data() + kFrameHeaderBytes, body.data(), body.size());

  ++appends_;
  const MetaFaultConfig& f = options_.fault;
  if (Frozen()) {
    return Status::Ok();  // post-crash: the entry never reaches the file
  }
  if (f.armed() && f.crash_after_appends > 0 && appends_ >= f.crash_after_appends) {
    // Simulated SIGKILL mid-append: a prefix of the frame lands torn.
    const std::uint64_t torn =
        std::min<std::uint64_t>(frame.size(), f.torn_append_bytes);
    f.crash->frozen.store(true, std::memory_order_relaxed);
    CA_RETURN_IF_ERROR(PwriteAll(fd_, frame.data(), torn, journal_bytes_));
    journal_bytes_ += torn;
    return Status::Ok();
  }
  CA_RETURN_IF_ERROR(PwriteAll(fd_, frame.data(), frame.size(), journal_bytes_));
  journal_bytes_ += frame.size();
  return MaybeFsync();
}

Status MetaStore::MaybeFsync() {
  const bool sync =
      options_.fsync == MetaFsyncPolicy::kAlways ||
      (options_.fsync == MetaFsyncPolicy::kEveryN && options_.fsync_every_n > 0 &&
       appends_ % options_.fsync_every_n == 0);
  if (!sync) {
    return Status::Ok();
  }
  ++fsyncs_;
  const MetaFaultConfig& f = options_.fault;
  if (f.armed() && f.crash_after_fsyncs > 0 && fsyncs_ >= f.crash_after_fsyncs) {
    // SIGKILL at the fsync boundary: the appended bytes are in the page
    // cache (an in-process restart still sees them) but were never forced
    // to media.
    f.crash->frozen.store(true, std::memory_order_relaxed);
    return Status::Ok();
  }
  if (::fdatasync(fd_) != 0) {
    return IoError(std::string("journal fdatasync: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Status MetaStore::MaybeCompact() {
  if (journal_bytes_ <= options_.compact_threshold_bytes) {
    return Status::Ok();
  }
  return Compact();
}

Status MetaStore::Compact() {
  if (Frozen()) {
    return Status::Ok();
  }
  ++compactions_;
  CA_TRACE_SPAN("meta.compact", "records", live_.size(), "journal_bytes", journal_bytes_);

  std::vector<std::uint8_t> snapshot(kSuperblockBytes);
  FillSuperblock(snapshot.data(), block_bytes_, store_id_);
  for (const auto& [session, rec] : live_) {
    ByteWriter w;
    EncodeUpsert(rec, w);
    std::uint8_t header[kFrameHeaderBytes];
    PutU32At(header, static_cast<std::uint32_t>(w.data().size()));
    PutU64At(header + 4, Fnv1a64(w.data()));
    snapshot.insert(snapshot.end(), header, header + kFrameHeaderBytes);
    snapshot.insert(snapshot.end(), w.data().begin(), w.data().end());
  }

  const std::string tmp = path_ + ".tmp";
  const int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) {
    return IoError("cannot open " + tmp + ": " + std::strerror(errno));
  }
  Status written = PwriteAll(tfd, snapshot.data(), snapshot.size(), 0);
  if (written.ok() && options_.fsync != MetaFsyncPolicy::kNone && ::fdatasync(tfd) != 0) {
    written = IoError(std::string("snapshot fdatasync: ") + std::strerror(errno));
  }
  if (!written.ok()) {
    ::close(tfd);
    ::unlink(tmp.c_str());
    return written;
  }

  const MetaFaultConfig& f = options_.fault;
  if (f.armed() && f.crash_on_compact > 0 && compactions_ >= f.crash_on_compact) {
    // SIGKILL between snapshot write and rename: the old journal is still
    // the journal; the orphaned tmp is unlinked by the next Open.
    f.crash->frozen.store(true, std::memory_order_relaxed);
    ::close(tfd);
    return Status::Ok();
  }

  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status s = IoError("rename " + tmp + ": " + std::strerror(errno));
    ::close(tfd);
    ::unlink(tmp.c_str());
    return s;
  }
  ::close(fd_);
  fd_ = tfd;
  journal_bytes_ = snapshot.size();
  return Status::Ok();
}

}  // namespace ca
