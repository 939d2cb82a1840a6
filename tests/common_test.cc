// Tests for src/common: Status/Result, units, RNG, statistics, table,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace ca {
namespace {

// --- Status / Result ---------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = NotFoundError("session 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "session 7");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: session 7");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(IoError("").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  CA_ASSIGN_OR_RETURN(const int h, Half(x));
  CA_ASSIGN_OR_RETURN(const int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

Status FailIfNegative(int x) {
  if (x < 0) {
    return InvalidArgumentError("negative");
  }
  return Status::Ok();
}

Status Chain(int x) {
  CA_RETURN_IF_ERROR(FailIfNegative(x));
  CA_RETURN_IF_ERROR(FailIfNegative(x - 10));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(15).ok());
  EXPECT_FALSE(Chain(5).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

TEST(CheckDeathTest, ChecksAbort) {
  EXPECT_DEATH(CA_CHECK(false) << "boom", "boom");
  EXPECT_DEATH(CA_CHECK_EQ(1, 2), "CA_CHECK failed");
  EXPECT_DEATH(CA_CHECK_LT(3, 2), "CA_CHECK failed");
}

// --- Units -------------------------------------------------------------

TEST(UnitsTest, ByteHelpers) {
  EXPECT_EQ(KiB(1), 1024ULL);
  EXPECT_EQ(MiB(2), 2ULL * 1024 * 1024);
  EXPECT_EQ(GiB(1), 1024ULL * 1024 * 1024);
  EXPECT_EQ(TiB(1), 1024ULL * GiB(1));
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(MiB(5)), "5.00 MiB");
  EXPECT_EQ(FormatBytes(GiB(2) + GiB(1) / 2), "2.50 GiB");
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_EQ(FromSeconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(ToSeconds(250 * kMillisecond), 0.25);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
}

TEST(UnitsTest, TransferTime) {
  // 26 GB over a 26 GB/s link takes one second.
  EXPECT_NEAR(ToSeconds(TransferTime(26'000'000'000ULL, 26e9)), 1.0, 1e-9);
  EXPECT_EQ(TransferTime(0, 26e9), 0);
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(FromMilliseconds(361.2)), "361.20 ms");
  EXPECT_EQ(FormatDuration(90 * kMinute), "1.50 h");
}

// --- Rng -----------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17ULL);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);  // all 5 values hit in 1000 draws
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stat.mean(), 0.0, 0.03);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.NextExponential(2.0));
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  // The child stream should not replicate the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.NextU64() == child.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

// --- Stats ---------------------------------------------------------------

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatTest, MergeEqualsCombined) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.NextGaussian();
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SamplesTest, Quantiles) {
  Samples s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 0.1);
}

TEST(SamplesTest, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
}

TEST(RunningStatTest, MergeEmptyIntoEmpty) {
  RunningStat a;
  RunningStat b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0U);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(RunningStatTest, MergeEmptyRhsIsNoOp) {
  RunningStat a;
  a.Add(3.0);
  a.Add(5.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(RunningStatTest, MergeIntoEmptyLhsCopiesRhs) {
  RunningStat rhs;
  rhs.Add(3.0);
  rhs.Add(5.0);
  RunningStat lhs;
  lhs.Merge(rhs);
  EXPECT_EQ(lhs.count(), 2U);
  EXPECT_DOUBLE_EQ(lhs.mean(), 4.0);
  EXPECT_DOUBLE_EQ(lhs.sum(), 8.0);
  EXPECT_DOUBLE_EQ(lhs.min(), 3.0);
  EXPECT_DOUBLE_EQ(lhs.max(), 5.0);
  EXPECT_NEAR(lhs.variance(), rhs.variance(), 1e-12);
}

TEST(SamplesTest, QuantileOnEmptySetIsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 0.0);
}

TEST(SamplesTest, QuantileOnSingleElementIsThatElement) {
  Samples s;
  s.Add(42.0);
  // Every quantile of a one-element set is the element itself, including the
  // q=0 / q=1 edges (pos == 0, lo == hi == 0).
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 42.0);
}

TEST(SamplesTest, QuantileEdgesAreExactOrderStatistics) {
  Samples s;
  s.Add(7.0);
  s.Add(-1.0);
  // q=1 must hit the max exactly (pos == size-1, frac == 0 — no
  // interpolation past the last order statistic).
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 3.0);
}

// --- Logging -------------------------------------------------------------

// Regression test for the data race on Logger's level: set_min_level used to
// be a plain (non-atomic) store racing every CA_LOG filter check from worker
// threads. Runs under the `concurrency` label, so the TSan suite proves the
// atomic accessors fixed it.
TEST(LoggerTest, SetMinLevelRacesLoggingThreads) {
  Logger& logger = Logger::Get();
  const LogLevel before = logger.min_level();
  std::atomic<bool> stop{false};
  ThreadPool pool(4);
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Filtered out at every level this test cycles through: exercises
        // the min_level() load without spamming test output.
        CA_LOG(Debug) << "level probe";
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    logger.set_min_level(i % 2 == 0 ? LogLevel::kWarn : LogLevel::kError);
  }
  stop.store(true);
  pool.Wait();
  logger.set_min_level(before);
  SUCCEED();
}

TEST(HistogramTest, BucketsAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_EQ(h.total(), 10U);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(h.bucket_count(i), 1U);
  }
  EXPECT_DOUBLE_EQ(h.CdfAt(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.CdfAt(10.0), 1.0);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-100.0);
  h.Add(1e9);
  EXPECT_EQ(h.bucket_count(0), 1U);
  EXPECT_EQ(h.bucket_count(4), 1U);
}

// --- Table ---------------------------------------------------------------

TEST(TableTest, FormatsAligned) {
  Table t({"model", "hit rate"});
  t.AddRow({"LLaMA-13B", Table::Percent(0.86)});
  t.AddRow({"Falcon-40B", Table::Percent(0.9)});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("LLaMA-13B"), std::string::npos);
  EXPECT_NE(s.find("86.0%"), std::string::npos);
  EXPECT_NE(s.find("| model"), std::string::npos);
}

TEST(TableTest, Csv) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, Helpers) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Percent(0.123, 1), "12.3%");
  EXPECT_EQ(Table::Speedup(7.8), "7.8x");
}

TEST(TableDeathTest, RowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "CA_CHECK failed");
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitMoreWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(1); });
  });
  // Wait drains both generations because in_flight covers the parent while
  // it enqueues the child.
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

// --- ParallelFor ----------------------------------------------------------

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, 0, 4, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 7, 7, 4, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  ParallelFor(nullptr, 3, 3, 1, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneInlineChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::size_t seen_begin = 99;
  std::size_t seen_end = 0;
  ParallelFor(&pool, 2, 5, 100, [&](std::size_t b, std::size_t e) {
    calls.fetch_add(1);
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2U);
  EXPECT_EQ(seen_end, 5U);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, 0, kN, 7, [&](std::size_t b, std::size_t e) {
    ASSERT_LT(b, e);
    ASSERT_LE(e, kN);
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSerialInOrder) {
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 0, 10, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      order.push_back(i);
    }
  });
  ASSERT_EQ(order.size(), 10U);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, ReentrantFromPoolTasks) {
  // A ParallelFor caller must only wait on its own chunks, so two
  // concurrent ParallelFor calls sharing one pool cannot deadlock or steal
  // each other's completion signal.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  ThreadPool outer(2);
  for (int c = 0; c < 2; ++c) {
    outer.Submit([&] {
      ParallelFor(&pool, 0, 100, 5,
                  [&](std::size_t b, std::size_t e) { total.fetch_add(static_cast<int>(e - b)); });
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 200);
}

// --- ChunkedHash64 / Checksum64 ----------------------------------------

std::vector<std::uint8_t> HashTestBytes(std::size_t n) {
  Rng rng(29);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBounded(256));
  }
  return out;
}

TEST(ChunkedHashTest, ChunkBoundaryInvariance) {
  // Splitting the input into any Update() sequence must digest identically
  // to one-shot Checksum64 — the store hashes per tier block during the
  // write loop and verifies whole-payload on read.
  const auto data = HashTestBytes(4096 + 37);
  const std::uint64_t whole = Checksum64(data);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{512}, std::size_t{1000}, std::size_t{4096}}) {
    ChunkedHash64 hash;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t len = std::min(chunk, data.size() - off);
      hash.Update(std::span<const std::uint8_t>(data.data() + off, len));
    }
    EXPECT_EQ(hash.Finalize(), whole) << "chunk size " << chunk;
    EXPECT_EQ(hash.total_bytes(), data.size());
  }
}

TEST(ChunkedHashTest, EmptyAndTinyInputs) {
  EXPECT_EQ(Checksum64({}), Checksum64({}));
  const auto a = HashTestBytes(1);
  const auto b = HashTestBytes(63);  // below one lane group
  EXPECT_NE(Checksum64(a), Checksum64({}));
  EXPECT_NE(Checksum64(a), Checksum64(b));
}

TEST(ChunkedHashTest, TrailingZerosChangeDigest) {
  // Length is folded in, so "same bytes plus trailing zeros" must differ.
  std::vector<std::uint8_t> data = HashTestBytes(128);
  const std::uint64_t before = Checksum64(data);
  data.push_back(0);
  EXPECT_NE(Checksum64(data), before);
}

TEST(ChunkedHashTest, SingleBitFlipChangesDigest) {
  std::vector<std::uint8_t> data = HashTestBytes(1 << 16);
  const std::uint64_t before = Checksum64(data);
  data[data.size() / 2] ^= 0x01;
  EXPECT_NE(Checksum64(data), before);
}

TEST(ChunkedHashTest, KnownAnswers) {
  // Digests of HashTestBytes(n), pinned so any change to the fold, the
  // tail or the finalizer shows up here (every durable payload's checksum
  // depends on them). Sizes straddle the 64-byte group boundary to cover
  // the bulk loop plus the serial tail.
  const std::pair<std::size_t, std::uint64_t> kKnown[] = {
      {0, 0x5933A58CFAC9307EULL},      {63, 0x98E042094BBBC93CULL},
      {64, 0x9A7F363515E7D97BULL},     {65, 0xE5C32DD7A1093698ULL},
      {4096, 0x67B926C5CF6BB98FULL},   {100003, 0xF07F8A4E25EFC722ULL},
  };
  for (const auto& [n, digest] : kKnown) {
    EXPECT_EQ(Checksum64(HashTestBytes(n)), digest) << "size " << n;
  }
}

TEST(ChunkedHashTest, FinalizeIsIdempotent) {
  ChunkedHash64 hash;
  const auto data = HashTestBytes(777);
  hash.Update(data);
  const std::uint64_t first = hash.Finalize();
  EXPECT_EQ(hash.Finalize(), first);
  hash.Update(data);  // more input after a Finalize is allowed
  EXPECT_NE(hash.Finalize(), first);
}

}  // namespace
}  // namespace ca
