// Self-tests for the benchmark's own arithmetic (bench_math.h). Built next
// to the driver; run with
//
//   cmake --build .bench_build/servebench --target servebench_selftest
//   .bench_build/servebench/servebench_selftest
//
// Exits 0 when every check holds, 1 otherwise (each failure is printed).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "servebench/bench_math.h"

namespace servebench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void TestPercentileLeavesTenSamplesBeyondP99() {
  // 1..1000: nearest-rank p99 is 990, with exactly ten samples above it.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(static_cast<double>(i));
  }
  Check(Percentile(v, 99) == 990.0, "p99 of 1..1000 is 990");
  Check(Percentile(v, 50) == 500.0, "p50 of 1..1000 is 500");
  Check(SamplesBeyondPercentile(v.size(), 99) == 10, "1000 samples leave 10 beyond p99");
  std::size_t above = 0;
  for (const double x : v) {
    above += x > Percentile(v, 99) ? 1 : 0;
  }
  Check(above == 10, "count above the returned p99 matches SamplesBeyondPercentile");
  Check(SamplesBeyondPercentile(999, 99) == 9, "999 samples are too few for a p99 tail of 10");
  Check(SamplesBeyondPercentile(1100, 99) == 11, "1100 samples leave 11 beyond p99");
  // Nearest rank rounds the rank up: 99% of 150 is rank 148.5 -> 149.
  std::vector<double> small;
  for (int i = 1; i <= 150; ++i) {
    small.push_back(static_cast<double>(i));
  }
  Check(Percentile(small, 99) == 149.0, "p99 of 1..150 is the 149th value");
  Check(SamplesBeyondPercentile(small.size(), 99) == 1, "150 samples leave 1 beyond p99");
  Check(Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 50) == 3.0, "p50 of 1..5 is 3");
  Check(Percentile({}, 99) == 0.0, "empty percentile is 0");
  Check(Percentile({7.0}, 99) == 7.0, "single-sample percentile is the sample");
}

void TestSloCountsFailuresAndRejectionsAsMisses() {
  const std::vector<TurnRecord> turns = {
      {TurnOutcome::kOk, 10.0},      // met
      {TurnOutcome::kOk, 100.0},     // met (limit is inclusive)
      {TurnOutcome::kOk, 100.5},     // late
      {TurnOutcome::kFailed, 1.0},   // fast but failed: miss
      {TurnOutcome::kRejected, 0.0}, // rejected: miss
  };
  Check(SloMet(turns, 100.0) == 2.0 / 5.0, "slo_met = 2 of 5 attempted");
  Check(SloMet({}, 100.0) == 0.0, "slo_met of nothing is 0");
}

Span MakeSpan(std::uint32_t tid, const char* name, std::uint64_t ts, std::uint64_t dur) {
  Span s;
  s.tid = tid;
  s.name = name;
  s.ts_ns = ts;
  s.dur_ns = dur;
  return s;
}

const Span* Find(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

void TestSelfTimeOnHandBuiltTree() {
  // Thread 1:  serve.turn [0,100)
  //              engine.turn [10,90)
  //                store.lookup [10,20)
  //                model.forward [30,60)
  //                  parallel_for [40,50)
  //                model.forward [60,80)
  // Thread 2:  parallel_for.worker [40,50)  (same interval, other thread:
  //            never a child of thread 1's spans)
  std::vector<Span> spans = {
      MakeSpan(1, "model.forward", 60, 20),  MakeSpan(1, "serve.turn", 0, 100),
      MakeSpan(2, "parallel_for.worker", 40, 10), MakeSpan(1, "store.lookup", 10, 10),
      MakeSpan(1, "engine.turn", 10, 80),    MakeSpan(1, "model.forward", 30, 30),
      MakeSpan(1, "parallel_for", 40, 10),
  };
  BuildSpanTree(spans);
  Check(Find(spans, "serve.turn")->self_ns == 20, "serve.turn self = 100 - 80");
  Check(Find(spans, "engine.turn")->self_ns == 20, "engine.turn self = 80 - (10+30+20)");
  Check(Find(spans, "store.lookup")->self_ns == 10, "leaf self = duration");
  Check(Find(spans, "parallel_for")->self_ns == 10, "nested leaf self = duration");
  Check(Find(spans, "parallel_for.worker")->parent == -1, "other thread's span is a root");
  std::uint64_t forward_self = 0;
  for (const Span& s : spans) {
    forward_self += s.name == "model.forward" ? s.self_ns : 0;
  }
  Check(forward_self == 20 + 20, "model.forward self = (30-10) + 20");
  const std::vector<std::uint64_t> sums = SubtreeSelfSums(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "serve.turn") {
      Check(sums[i] == spans[i].dur_ns, "self times under serve.turn add up to the turn");
    }
  }
  Check(LayerOf("engine.prefill") == "core" && LayerOf("store.lookup") == "store" &&
            LayerOf("io.read") == "store" && LayerOf("parallel_for.worker") == "model",
        "layer attribution by prefix");

  // Overlapping children (which same-thread spans never produce) are merged
  // for the parent's self time, and the subtree sum then exceeds the parent:
  // exactly what the driver's self-time check flags.
  std::vector<Span> bad = {MakeSpan(1, "a", 0, 100), MakeSpan(1, "b", 10, 50),
                           MakeSpan(1, "c", 20, 50)};
  BuildSpanTree(bad);
  Check(Find(bad, "a")->self_ns == 100 - 60 || Find(bad, "a")->self_ns == 100 - 50,
        "overlap coverage is a union");
  Check(SubtreeSelfSums(bad)[0] != 100, "malformed nesting breaks the subtree sum");
}

void TestSpanArg() {
  Check(SpanArg("\"worker\":1,\"jobs\":3", "jobs") == std::optional<std::uint64_t>(3),
        "jobs arg parsed");
  Check(!SpanArg("\"medium\":\"disk\"", "medium").has_value(), "string arg is not an integer");
  Check(!SpanArg("", "jobs").has_value(), "missing arg");
}

void TestDigestMismatchFailsTheRun() {
  const std::vector<std::int32_t> a = {1, 2, 3};
  const std::vector<std::int32_t> b = {1, 2, 4};
  Check(ReplyDigest(a) != ReplyDigest(b), "different replies digest differently");
  Check(ReplyDigest(std::vector<std::int32_t>{}) != ReplyDigest(std::vector<std::int32_t>{0}),
        "length is part of the digest");
  DigestMap reference = {{{1, 1}, ReplyDigest(a)}, {{1, 2}, ReplyDigest(a)},
                         {{2, 1}, ReplyDigest(b)}};
  DigestMap same = reference;
  Check(RunCorrect(reference, same, 0, 0), "matching digests pass");
  Check(!FirstDivergence(reference, same).has_value(), "no divergence");
  Check(CombinedDigest(reference) == CombinedDigest(same), "combined digest is stable");

  DigestMap changed = reference;
  changed[{2, 1}] = ReplyDigest(a);
  changed[{1, 2}] = ReplyDigest(b);
  Check(!RunCorrect(reference, changed, 0, 0), "a changed reply fails the run");
  Check(FirstDivergence(reference, changed) == std::optional<TurnKey>(TurnKey{1, 2}),
        "first diverging (session, turn) is reported");
  Check(CombinedDigest(reference) != CombinedDigest(changed), "combined digest changes");

  DigestMap missing = reference;
  missing.erase({1, 2});
  Check(!RunCorrect(reference, missing, 0, 0), "a missing reply fails the run");
  Check(FirstDivergence(reference, missing) == std::optional<TurnKey>(TurnKey{1, 2}),
        "missing turn is the divergence");
  DigestMap extra = reference;
  extra[{3, 1}] = 0;
  Check(FirstDivergence(reference, extra) == std::optional<TurnKey>(TurnKey{3, 1}),
        "an unexpected reply is a divergence");
  Check(!RunCorrect(reference, same, 1, 0), "a failed turn fails the run");
  Check(!RunCorrect(reference, same, 0, 1), "a rejected turn fails the run");
}

void TestRecordedDigestTable() {
  std::istringstream table(
      "# traffic seed seconds trace digest\n"
      "\n"
      "chat 1 20 0 00000000000000ff\n"
      "chat 1 20 1 0123456789abcdef\n"
      "prefix 7 20.0 0 fedcba9876543210\n");
  const auto parsed = ParseRecordedDigests(table);
  Check(parsed.has_value() && parsed->size() == 3, "three recorded digests parse");
  if (!parsed.has_value()) {
    return;
  }
  const RecordedDigests& t = *parsed;
  Check(CheckRecorded(t, RecordKey("chat", 1, 20.0, false), 0xff) == RecordCheck::kMatch,
        "recorded digest matches");
  Check(CheckRecorded(t, RecordKey("chat", 1, 20.0, false), 0xfe) == RecordCheck::kMismatch,
        "a differing digest is a mismatch");
  Check(CheckRecorded(t, RecordKey("chat", 1, 20.0, true), 0xff) == RecordCheck::kMismatch,
        "the trace flag is part of the key");
  Check(CheckRecorded(t, RecordKey("prefix", 7, 20, false), 0xfedcba9876543210ULL) ==
            RecordCheck::kMatch,
        "seconds compare as numbers (20.0 == 20)");
  Check(CheckRecorded(t, RecordKey("chat", 2, 20.0, false), 0xff) == RecordCheck::kUnrecorded,
        "another seed is unrecorded");
  Check(CheckRecorded(t, RecordKey("chat", 1, 15.0, false), 0xff) == RecordCheck::kUnrecorded,
        "other seconds are unrecorded");
  for (const char* bad : {"chat 1 20 0 0123\n", "chat 1 20 2 0123456789abcdef\n",
                          "chat x 20 0 0123456789abcdef\n", "chat 1 20 0 0123456789ABCDEF\n",
                          "chat 1 20 0 0123456789abcdef extra\n", "chat 1 0 0 0123456789abcdef\n",
                          "chat 1 20 0 0000000000000000\nchat 1 20.0 0 0000000000000001\n"}) {
    std::istringstream in(bad);
    Check(!ParseRecordedDigests(in).has_value(), std::string("malformed table refused: ") + bad);
  }
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestPercentileLeavesTenSamplesBeyondP99();
  servebench::TestSloCountsFailuresAndRejectionsAsMisses();
  servebench::TestSelfTimeOnHandBuiltTree();
  servebench::TestSpanArg();
  servebench::TestDigestMismatchFailsTheRun();
  servebench::TestRecordedDigestTable();
  if (servebench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("servebench selftest: all checks passed\n");
  return 0;
}
