// The serving benchmark's own arithmetic, kept apart from the driver so
// selftest.cc can check it on hand-built inputs: percentile selection,
// SLO accounting, span self times, the reply-digest comparison and the
// table of recorded digests.
#ifndef SERVEBENCH_BENCH_MATH_H_
#define SERVEBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile (q in (0, 100]) of `values`; 0 for an empty set.
// The value returned is one of the samples, so "samples beyond" it is exact.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

// Number of samples the nearest-rank q-th percentile leaves above it: the
// tail the percentile is estimated from. p99 is reported with its tail so a
// reader can see whether it rests on at least ten samples.
inline std::size_t SamplesBeyondPercentile(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(n))));
  return n - std::min(rank, n);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// --- SLO accounting ----------------------------------------------------------

enum class TurnOutcome : std::uint8_t { kOk, kFailed, kRejected };

struct TurnRecord {
  TurnOutcome outcome = TurnOutcome::kOk;
  double latency_ms = 0.0;  // due time -> reply seen; meaningful for kOk only
};

// Share of attempted turns that succeeded within `limit_ms`. A failed or
// rejected turn is a miss whatever its latency.
inline double SloMet(const std::vector<TurnRecord>& turns, double limit_ms) {
  if (turns.empty()) {
    return 0.0;
  }
  std::size_t met = 0;
  for (const TurnRecord& t : turns) {
    met += (t.outcome == TurnOutcome::kOk && t.latency_ms <= limit_ms) ? 1 : 0;
  }
  return static_cast<double>(met) / static_cast<double>(turns.size());
}

// --- span self times ---------------------------------------------------------

// One complete span on one thread. `parent` and `self_ns` are filled in by
// BuildSpanTree.
struct Span {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string args;
  int parent = -1;          // index of the enclosing same-thread span, -1 if root
  std::uint64_t self_ns = 0;

  std::uint64_t end_ns() const { return ts_ns + dur_ns; }
};

// Nests each thread's spans by containment and sets every span's self time:
// its duration minus the part of it that its direct children cover (the
// union of their intervals, clipped to the parent). Spans of different
// threads never nest. Reorders `spans` (by thread, then start, longest first).
inline void BuildSpanTree(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    if (a.ts_ns != b.ts_ns) {
      return a.ts_ns < b.ts_ns;
    }
    return a.dur_ns > b.dur_ns;
  });
  std::vector<int> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    s.parent = -1;
    while (!stack.empty()) {
      const Span& top = spans[static_cast<std::size_t>(stack.back())];
      if (top.tid == s.tid && s.ts_ns >= top.ts_ns && s.ts_ns < top.end_ns()) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = stack.back();
    }
    stack.push_back(static_cast<int>(i));
  }
  // Covered time per parent: children of one parent arrive in start order,
  // so a running "covered up to" mark merges overlaps in one pass.
  std::vector<std::uint64_t> covered(spans.size(), 0);
  std::vector<std::uint64_t> mark(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& c = spans[i];
    if (c.parent < 0) {
      continue;
    }
    const auto p = static_cast<std::size_t>(c.parent);
    const std::uint64_t lo = std::max({c.ts_ns, spans[p].ts_ns, mark[p]});
    const std::uint64_t hi = std::min(c.end_ns(), spans[p].end_ns());
    if (hi > lo) {
      covered[p] += hi - lo;
      mark[p] = hi;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].self_ns = spans[i].dur_ns - std::min(spans[i].dur_ns, covered[i]);
  }
}

// Sum of self times over the subtree rooted at each span (indexed like
// `spans`; requires BuildSpanTree order, where children follow parents).
inline std::vector<std::uint64_t> SubtreeSelfSums(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> sums(spans.size(), 0);
  for (std::size_t i = spans.size(); i-- > 0;) {
    sums[i] += spans[i].self_ns;
    if (spans[i].parent >= 0) {
      sums[static_cast<std::size_t>(spans[i].parent)] += sums[i];
    }
  }
  return sums;
}

// Layer a span belongs to, by its name's prefix (the modules of src/).
inline std::string LayerOf(const std::string& name) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"bench.", "bench"},   {"cluster.", "cluster"}, {"serve.", "serve"},
      {"sched.", "sched"},   {"engine.", "core"},     {"model.", "model"},
      {"parallel_for", "model"}, {"store.", "store"}, {"io.", "store"},
      {"prefetch.", "store"}, {"meta.", "store"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (name.rfind(prefix, 0) == 0) {
      return layer;
    }
  }
  return "other";
}

// Integer argument `key` of a rendered span-args string ("\"k\":12,..."),
// or nullopt.
inline std::optional<std::uint64_t> SpanArg(const std::string& args, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = args.find(needle);
  if (at == std::string::npos) {
    return std::nullopt;
  }
  std::size_t i = at + needle.size();
  if (i >= args.size() || args[i] < '0' || args[i] > '9') {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (; i < args.size() && args[i] >= '0' && args[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(args[i] - '0');
  }
  return v;
}

// --- reply digests -----------------------------------------------------------

// (session, 1-based turn) of one reply.
using TurnKey = std::pair<std::uint64_t, std::uint32_t>;
using DigestMap = std::map<TurnKey, std::uint64_t>;

// FNV-1a over the reply's token ids (little-endian 32-bit each) and length.
inline std::uint64_t ReplyDigest(std::span<const std::int32_t> tokens) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint32_t>(tokens.size()));
  for (const std::int32_t t : tokens) {
    mix(static_cast<std::uint32_t>(t));
  }
  return h;
}

// One digest over every reply, in (session, turn) order.
inline std::uint64_t CombinedDigest(const DigestMap& replies) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& [key, digest] : replies) {
    for (const std::uint64_t v : {key.first, static_cast<std::uint64_t>(key.second), digest}) {
      h ^= v;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// First (session, turn), in order, whose reply differs from the reference
// or is missing from either side; nullopt when the two agree everywhere.
inline std::optional<TurnKey> FirstDivergence(const DigestMap& reference, const DigestMap& got) {
  auto r = reference.begin();
  auto g = got.begin();
  while (r != reference.end() || g != got.end()) {
    if (r == reference.end()) {
      return g->first;
    }
    if (g == got.end() || r->first < g->first) {
      return r->first;
    }
    if (g->first < r->first || r->second != g->second) {
      return g->first < r->first ? g->first : r->first;
    }
    ++r;
    ++g;
  }
  return std::nullopt;
}

// A run's outputs are correct when every reply matches the reference and no
// turn failed or was rejected.
inline bool RunCorrect(const DigestMap& reference, const DigestMap& got, std::size_t failed,
                       std::size_t rejected) {
  return failed == 0 && rejected == 0 && !FirstDivergence(reference, got).has_value();
}

// --- recorded digests ---------------------------------------------------------

// Key of one recorded combined digest: the traffic it was served from, the
// seed, the --seconds value and the trace flag (a traced run serves half as
// long, so other sessions). Workloads that share traffic share the key.
inline std::string RecordKey(const std::string& traffic, std::uint64_t seed, double seconds,
                             bool trace) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %llu %.6g %d", static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0);
  return traffic + buf;
}

using RecordedDigests = std::map<std::string, std::uint64_t>;

// Parses the recorded-digest table: one "<traffic> <seed> <seconds> <trace>
// <16 hex digits>" per line; blank lines and lines starting with '#' are
// skipped. nullopt when a line is malformed or a key repeats.
inline std::optional<RecordedDigests> ParseRecordedDigests(std::istream& in) {
  RecordedDigests out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string traffic, seed, seconds, trace, digest, rest;
    if (!(fields >> traffic) || traffic[0] == '#') {
      continue;
    }
    if (!(fields >> seed >> seconds >> trace >> digest) || (fields >> rest) ||
        digest.size() != 16 || (trace != "0" && trace != "1") ||
        seed.find_first_not_of("0123456789") != std::string::npos ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
      return std::nullopt;
    }
    char* end = nullptr;
    const double secs = std::strtod(seconds.c_str(), &end);
    if (end == seconds.c_str() || *end != '\0' || !(secs > 0)) {
      return std::nullopt;
    }
    const std::string key =
        RecordKey(traffic, std::strtoull(seed.c_str(), nullptr, 10), secs, trace == "1");
    if (!out.emplace(key, std::strtoull(digest.c_str(), nullptr, 16)).second) {
      return std::nullopt;
    }
  }
  return out;
}

enum class RecordCheck : std::uint8_t { kMatch, kMismatch, kUnrecorded };

inline RecordCheck CheckRecorded(const RecordedDigests& table, const std::string& key,
                                 std::uint64_t combined) {
  const auto it = table.find(key);
  if (it == table.end()) {
    return RecordCheck::kUnrecorded;
  }
  return it->second == combined ? RecordCheck::kMatch : RecordCheck::kMismatch;
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_MATH_H_
