// I/O-path tests for the block storage backends (DESIGN.md §14): the
// zero-copy write/read protocol must be byte-for-byte equivalent to the
// legacy copy path on every backend, and FileBlockStorage's crash schedule
// must tear an extent at exactly the scheduled device-block write.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/store/attention_store.h"
#include "src/store/block_storage.h"

namespace ca {
namespace {

std::vector<std::uint8_t> Payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  return out;
}

// PayloadSink that appends every chunk (the read-side collector used to
// compare streamed bytes against the legacy Read vector).
struct CollectSink final : PayloadSink {
  std::vector<std::uint8_t> data;
  std::size_t chunks = 0;
  void Reset() override {
    data.clear();
    chunks = 0;
  }
  void Consume(std::span<const std::uint8_t> chunk) override {
    data.insert(data.end(), chunk.begin(), chunk.end());
    ++chunks;
  }
};

// PayloadSource that produces a deterministic pattern without a backing
// buffer, counting Fill calls (proves the storage pulls rather than stages).
class PatternSource final : public PayloadSource {
 public:
  explicit PatternSource(std::uint64_t n) : n_(n) {}

  std::uint64_t size() const override { return n_; }
  void Reset() override { pos_ = 0; }
  void Fill(std::span<std::uint8_t> dest) override {
    ++fills_;
    for (auto& b : dest) {
      b = static_cast<std::uint8_t>((pos_++ * 131U) & 0xFFU);
    }
  }
  std::size_t fills() const { return fills_; }

  static std::vector<std::uint8_t> Expected(std::uint64_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>((i * 131U) & 0xFFU);
    }
    return out;
  }

 private:
  std::uint64_t n_;
  std::uint64_t pos_ = 0;
  std::size_t fills_ = 0;
};

// One backend under test: the arena tier or the disk tier's file, at a block
// size. 4 KiB is the page-sized default, 1000 B a block that is neither a
// power of two nor sector-aligned, 32 KiB the serving benchmark's block; a
// persisted file shifts every block behind its 4 KiB superblock region.
struct BackendParam {
  const char* name;
  bool file;
  std::uint64_t block;
  bool persist;
};

class IoBackendTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  void TearDown() override {
    if (GetParam().persist) {
      std::remove(Path().c_str());  // persisted files outlive their storage
    }
  }

  std::uint64_t Block() const { return GetParam().block; }

  // One file per test and backend: ctest runs the cases as parallel
  // processes, and a shared path would let one truncate another's file.
  std::string Path() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();  // "<Test>/<backend>"
    std::replace(name.begin(), name.end(), '/', '_');
    return testing::TempDir() + "/ca_store_io_" + name + ".blocks";
  }

  std::unique_ptr<BlockStorage> MakeStorage(std::uint64_t capacity_blocks) {
    const BackendParam& p = GetParam();
    if (!p.file) {
      return std::make_unique<MemoryBlockStorage>(capacity_blocks * p.block, p.block);
    }
    DiskIoOptions io;
    io.persist = p.persist;
    io.store_id = 7;
    auto opened = FileBlockStorage::Open(Path(), capacity_blocks * p.block, p.block, io);
    CA_CHECK(opened.ok()) << opened.status();
    return std::move(*opened);
  }
};

TEST_P(IoBackendTest, ZeroCopyWriteMatchesLegacyRead) {
  auto storage = MakeStorage(64);
  const std::uint64_t n = Block() * 5 + 321;  // 6 blocks, partial tail
  PatternSource source(n);
  auto extent = storage->WriteZeroCopy(source);
  ASSERT_TRUE(extent.ok()) << extent.status();
  EXPECT_EQ(extent->byte_length, n);
  EXPECT_EQ(extent->blocks.size(), 6U);
  EXPECT_GE(source.fills(), 1U);
  auto read = storage->Read(*extent);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, PatternSource::Expected(n));
  storage->Free(*extent);
  EXPECT_EQ(storage->UsedBlocks(), 0U);
}

TEST_P(IoBackendTest, LegacyWriteMatchesZeroCopyRead) {
  auto storage = MakeStorage(64);
  const auto data = Payload(Block() * 3 + 17, 5);
  auto extent = storage->Write(data);
  ASSERT_TRUE(extent.ok()) << extent.status();
  CollectSink sink;
  ASSERT_TRUE(storage->ReadZeroCopy(*extent, sink).ok());
  EXPECT_EQ(sink.data, data);
}

TEST_P(IoBackendTest, ReadIntoCallerBuffer) {
  auto storage = MakeStorage(16);
  const auto data = Payload(Block() + 99, 7);
  auto extent = storage->Write(data);
  ASSERT_TRUE(extent.ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(storage->ReadInto(*extent, out).ok());
  EXPECT_EQ(out, data);
  // A buffer of the wrong size is a caller bug surfaced as a Status.
  std::vector<std::uint8_t> wrong(data.size() - 1);
  const Status bad = storage->ReadInto(*extent, wrong);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_P(IoBackendTest, MalformedExtentIsInternalNotAbort) {
  auto storage = MakeStorage(16);
  BlockExtent bogus;
  bogus.blocks = {0, 1};
  bogus.byte_length = Block() * 3;  // 3 blocks of bytes, 2 block ids
  std::vector<std::uint8_t> out(bogus.byte_length);
  EXPECT_EQ(storage->ReadInto(bogus, out).code(), StatusCode::kInternal);
  CollectSink sink;
  EXPECT_EQ(storage->ReadZeroCopy(bogus, sink).code(), StatusCode::kInternal);
  // An in-shape extent naming a block past the pool is malformed too.
  BlockExtent out_of_range;
  out_of_range.blocks = {0, 16};
  out_of_range.byte_length = Block() * 2;
  EXPECT_EQ(storage->ReadZeroCopy(out_of_range, sink).code(), StatusCode::kInternal);
}

TEST_P(IoBackendTest, SingleByteAndFullBlockEdges) {
  auto storage = MakeStorage(16);
  for (const std::uint64_t n : {std::uint64_t{1}, Block(), Block() * 2}) {
    PatternSource source(n);
    auto extent = storage->WriteZeroCopy(source);
    ASSERT_TRUE(extent.ok()) << "n=" << n << ": " << extent.status();
    auto read = storage->Read(*extent);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, PatternSource::Expected(n)) << "n=" << n;
    storage->Free(*extent);
  }
}

TEST_P(IoBackendTest, TransfersMoveOneBlockPerFillAndChunk) {
  // The one I/O path: a write hands the source one destination window per
  // block, and a streamed read hands the sink one chunk per block, each
  // exactly the block's share of the record.
  auto storage = MakeStorage(16);
  const std::uint64_t n = Block() * 4 + 7;  // 5 blocks, 7-byte tail
  PatternSource source(n);
  auto extent = storage->WriteZeroCopy(source);
  ASSERT_TRUE(extent.ok()) << extent.status();
  EXPECT_EQ(source.fills(), 5U);
  struct SizeSink final : PayloadSink {
    std::vector<std::size_t> sizes;
    void Reset() override { sizes.clear(); }
    void Consume(std::span<const std::uint8_t> chunk) override { sizes.push_back(chunk.size()); }
  } sink;
  ASSERT_TRUE(storage->ReadZeroCopy(*extent, sink).ok());
  const std::size_t b = Block();
  EXPECT_EQ(sink.sizes, (std::vector<std::size_t>{b, b, b, b, 7}));
}

TEST_P(IoBackendTest, FragmentedFreeAndRewriteRoundTrips) {
  // Random free-and-rewrite churn over a small pool, so later extents land
  // on scattered, non-ascending blocks: every live record must still read
  // back byte for byte, and the pool's count must match the live extents.
  auto storage = MakeStorage(48);
  struct Live {
    BlockExtent extent;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Live> live;
  Rng rng(99);
  std::size_t scattered = 0;
  for (std::uint64_t op = 0; op < 300; ++op) {
    const bool must_free = live.size() >= 8;
    if (!live.empty() && (must_free || rng.NextBounded(3) == 0)) {
      const std::size_t victim = rng.NextBounded(live.size());
      storage->Free(live[victim].extent);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      continue;
    }
    const std::uint64_t n = Block() * rng.NextBounded(5) + 1 + rng.NextBounded(Block());
    auto bytes = Payload(n, 1000 + op);
    auto extent = storage->Write(bytes);
    ASSERT_TRUE(extent.ok()) << "op " << op << ": " << extent.status();
    if (!std::is_sorted(extent->blocks.begin(), extent->blocks.end())) {
      ++scattered;
    }
    live.push_back({std::move(*extent), std::move(bytes)});
  }
  EXPECT_GT(scattered, 0U) << "churn never produced a non-ascending extent";
  std::uint64_t live_blocks = 0;
  for (const Live& record : live) {
    auto read = storage->Read(record.extent);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, record.bytes);
    live_blocks += record.extent.blocks.size();
  }
  EXPECT_EQ(storage->UsedBlocks(), live_blocks);
}

TEST_P(IoBackendTest, ExhaustedPoolFailsCleanlyAndKeepsRecords) {
  auto storage = MakeStorage(4);
  const auto kept = Payload(Block() * 2 + 5, 31);  // 3 of the 4 blocks
  auto extent = storage->Write(kept);
  ASSERT_TRUE(extent.ok()) << extent.status();
  const auto too_big = Payload(Block() + 1, 32);  // needs 2, 1 is free
  auto refused = storage->Write(too_big);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(storage->UsedBlocks(), 3U);  // the refusal claimed nothing
  auto read = storage->Read(*extent);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, kept);
  storage->Free(*extent);
  auto retried = storage->Write(too_big);
  ASSERT_TRUE(retried.ok()) << retried.status();
  auto reread = storage->Read(*retried);
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_EQ(*reread, too_big);
}

TEST_P(IoBackendTest, AdoptExtentClaimsExactlyItsBlocks) {
  auto storage = MakeStorage(8);
  BlockExtent adopted;
  adopted.blocks = {5, 2, 3};
  adopted.byte_length = Block() * 2 + 10;
  ASSERT_TRUE(storage->AdoptExtent(adopted).ok());
  EXPECT_EQ(storage->UsedBlocks(), 3U);
  // A second claim on a held block fails and claims nothing.
  BlockExtent overlapping;
  overlapping.blocks = {1, 3};
  overlapping.byte_length = Block() + 1;
  EXPECT_EQ(storage->AdoptExtent(overlapping).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(storage->UsedBlocks(), 3U);
  // New writes get only the blocks the adoption left free.
  auto fresh = storage->Write(Payload(Block() * 5, 41));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  for (const BlockId block : fresh->blocks) {
    EXPECT_TRUE(block != 5 && block != 2 && block != 3) << "block " << block;
  }
  EXPECT_EQ(storage->UsedBlocks(), 8U);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IoBackendTest,
    ::testing::Values(BackendParam{"mem", false, KiB(4), false},
                      BackendParam{"mem_odd_block", false, 1000, false},
                      BackendParam{"file", true, KiB(4), false},
                      BackendParam{"file_odd_block", true, 1000, false},
                      BackendParam{"file_large_block", true, KiB(32), false},
                      BackendParam{"file_persist", true, KiB(4), true}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// --- FileBlockStorage crash schedule -------------------------------------

// A persisted file holds an 8-block extent of old bytes. Reopened with
// crash_after_block_writes = N, a fresh allocator hands out the same blocks
// and the overwrite lands device-block writes 1..N; write #N freezes the
// switch and later blocks are swallowed, yet the source is still filled for
// every block. A third open reads the torn mix back from the file. An N past
// the extent lands every block and leaves the switch unfrozen.
void ExpectOverwriteTornAfter(std::uint64_t crash_after, const std::string& tag) {
  constexpr std::uint64_t kBlock = KiB(4);
  constexpr std::uint64_t kBlocks = 8;
  const std::uint64_t landed = std::min(crash_after, kBlocks);
  const std::string path = testing::TempDir() + "/ca_io_crash_schedule_" + tag + ".blocks";
  const std::uint64_t n = kBlock * (kBlocks - 1) + 123;  // partial tail block
  const auto old_bytes = Payload(n, 21);
  DiskIoOptions io;
  io.persist = true;
  io.store_id = 77;
  BlockExtent extent;
  {
    auto fresh = FileBlockStorage::Open(path, KiB(64), kBlock, io);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    auto written = (*fresh)->Write(old_bytes);
    ASSERT_TRUE(written.ok()) << written.status();
    extent = *written;
  }
  ASSERT_EQ(extent.blocks.size(), kBlocks);

  io.reuse_existing = true;
  {
    DiskIoOptions crashing_io = io;
    crashing_io.crash = std::make_shared<CrashSwitch>();
    crashing_io.crash_after_block_writes = crash_after;
    auto crashing = FileBlockStorage::Open(path, KiB(64), kBlock, crashing_io);
    ASSERT_TRUE(crashing.ok()) << crashing.status();
    PatternSource source(n);
    auto rewritten = (*crashing)->WriteZeroCopy(source);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    EXPECT_EQ(rewritten->blocks, extent.blocks);
    EXPECT_EQ(source.fills(), kBlocks);  // every block was produced
    EXPECT_EQ(crashing_io.crash->frozen.load(), crash_after <= kBlocks);
  }

  {
    auto reopened = FileBlockStorage::Open(path, KiB(64), kBlock, io);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ASSERT_TRUE((*reopened)->AdoptExtent(extent).ok());
    auto read = (*reopened)->Read(extent);
    ASSERT_TRUE(read.ok()) << read.status();
    std::vector<std::uint8_t> expected = PatternSource::Expected(n);
    if (landed * kBlock < n) {
      std::copy(old_bytes.begin() + landed * kBlock, old_bytes.end(),
                expected.begin() + landed * kBlock);
    }
    EXPECT_EQ(*read, expected);
  }
  std::remove(path.c_str());
}

TEST(FileCrashScheduleTest, OverwriteTearsAtTheScheduledBlockWrite) {
  ExpectOverwriteTornAfter(3, "mid");
}

class FileCrashScheduleEdgeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FileCrashScheduleEdgeTest, OverwriteLandsExactlyTheScheduledBlocks) {
  ExpectOverwriteTornAfter(GetParam(), std::to_string(GetParam()));
}

// First block only, the extent's last (partial) block, and past the extent.
INSTANTIATE_TEST_SUITE_P(CrashAfter, FileCrashScheduleEdgeTest, ::testing::Values(1, 8, 12),
                         [](const auto& param_info) {
                           return "block_" + std::to_string(param_info.param);
                         });

// --- AttentionStore zero-copy spine --------------------------------------

StoreConfig PayloadConfig() {
  StoreConfig config;
  config.dram_capacity = MiB(64);
  config.disk_capacity = MiB(64);
  config.block_bytes = KiB(64);
  config.real_payloads = true;
  config.audit = true;
  return config;
}

TEST(StoreZeroCopyTest, SourcePutMatchesSpanPut) {
  const auto data = Payload(KiB(64) * 2 + 9, 23);
  AttentionStore span_store(PayloadConfig());
  AttentionStore source_store(PayloadConfig());
  const SchedulerHints hints;
  ASSERT_TRUE(span_store.Put(1, data.size(), 10, data, 1, hints).ok());
  SpanSource source(data);
  ASSERT_TRUE(source_store.Put(1, 10, source, 1, hints).ok());

  auto via_span = span_store.ReadPayload(1);
  ASSERT_TRUE(via_span.ok());
  CollectSink sink;
  ASSERT_TRUE(source_store.ReadPayloadInto(1, sink).ok());
  EXPECT_EQ(*via_span, data);
  EXPECT_EQ(sink.data, data);
}

TEST(StoreZeroCopyTest, ChecksumVerifiesAcrossPaths) {
  // A payload stored through the zero-copy path must verify (same
  // checksum) when read through the legacy path and vice versa.
  const auto data = Payload(KiB(64) + 1234, 29);
  AttentionStore store(PayloadConfig());
  const SchedulerHints hints;
  SpanSource source(data);
  ASSERT_TRUE(store.Put(7, 10, source, 1, hints).ok());
  auto read = store.ReadPayload(7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(store.stats().corrupt_payloads, 0U);
}

TEST(StoreZeroCopyTest, TierIoCountersAccumulate) {
  const auto data = Payload(KiB(64) * 2, 31);
  AttentionStore store(PayloadConfig());
  const SchedulerHints hints;
  ASSERT_TRUE(store.Put(1, data.size(), 10, data, 1, hints).ok());
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  const auto& io = store.stats().tier_io[static_cast<std::size_t>(Tier::kDram)];
  EXPECT_EQ(io.write_bytes, data.size());
  EXPECT_EQ(io.read_bytes, data.size());
  EXPECT_GT(io.write_ns, 0U);
  EXPECT_GT(io.read_ns, 0U);
  EXPECT_GT(io.write_bytes_per_sec(), 0.0);
}

TEST(StoreZeroCopyTest, ReadPayloadIntoMissingSessionIsNotFound) {
  AttentionStore store(PayloadConfig());
  CollectSink sink;
  EXPECT_EQ(store.ReadPayloadInto(99, sink).code(), StatusCode::kNotFound);
  EXPECT_TRUE(sink.data.empty());
}

TEST(StoreZeroCopyTest, ChecksumsOffStillRoundTrips) {
  StoreConfig config = PayloadConfig();
  config.verify_checksums = false;
  const auto data = Payload(KiB(64) + 5, 37);
  AttentionStore store(config);
  const SchedulerHints hints;
  ASSERT_TRUE(store.Put(1, data.size(), 10, data, 1, hints).ok());
  auto read = store.ReadPayload(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

}  // namespace
}  // namespace ca
