// Seeded open-loop serving benchmark driver.
//
// Generates ShareGPT-like chat traffic from --seed, serves it through the
// public ServingLoop (or a 2-shard ShardRouter for fleet-drain) and measures
// the latency each turn's client sees. Sessions arrive at uniform random
// times over the window (a Poisson process conditioned on its count); within
// a session the loop is closed: turn t+1 falls due one think time after the
// reply to turn t is seen. One thread generates, submits and polls replies;
// every turn is timed from its due time, so a stall is charged to every turn
// it delays.
//
//   servebench_driver --workload chat-resident --seed 1 --seconds 15
//                     --trace 0 --scratch DIR [--digests FILE]
//
// Every run checks its replies. The combined digest of every reply is
// compared with the one recorded for (traffic, seed, seconds, trace) in
// --digests, when there is one; otherwise, or when it differs, the same
// traffic is replayed through fresh sequential engines and each served reply
// is checked against them (the determinism contract: placement, sharing,
// worker count and migration never change a reply), which also names the
// first diverging (session, turn).
//
//   servebench_driver --workload W --seed N --seconds S --trace T --reference-digest
//
// prints the replay's digest as a line of that table instead of serving.
//
// With --trace 1 the traffic is served twice, traced then untraced; the
// traced pass gives the per-layer numbers, the untraced one the tracing
// overhead.
//
// Prints one "servebench-report {...}" line with the full record (host
// fingerprint, sizing, turn counts, digest, p50/p95/p99) and, last, the result
// line {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}.
// Diagnostics go to stderr.
#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "servebench/bench_math.h"
#include "src/cluster/shard_router.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/serving_loop.h"
#include "src/workload/sharegpt.h"

namespace servebench {
namespace {

using ca::SessionId;
using ca::TokenId;

// --- workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  // Traffic family: workloads with the same one serve the same sessions for
  // a seed, so they share their recorded reply digests.
  std::string traffic = "chat";
  // Latency limit of slo_met: about ten times the workload's median turn on
  // an unloaded host, so slo_met counts stalls (queues that do not drain,
  // tier thrash, parked turns) rather than the host's speed. A limit near
  // the median follows the host: with 50 ms (2.5x), fleet-drain's slo_met
  // read 0.87-0.97 over runs of one build as other tenants loaded the shared
  // 4-vCPU host (0.72-0.77 beside three busy loops, where p99 stayed below
  // 140 ms).
  double slo_ms = 200.0;
  double turns_per_s = 0.0;            // offered load; sessions follow from it
  std::uint32_t min_turns = 1;
  std::uint32_t max_turns = 8;
  double think_mean_s = 0.25;
  std::size_t shared_prefix = 0;       // tokens of the common system prompt
  bool fleet = false;                  // 2-shard ShardRouter with a mid-run drain
  std::uint64_t dram_kib = 0;
  std::uint64_t dram_buffer_kib = 0;
  // Workers per ServingLoop (per shard on the fleet) and model threads per
  // worker. One model thread per worker: the Mini model's matmuls are too
  // small for intra-op threads to pay (2x2 measured slower than 4x1).
  std::size_t workers = 3;
  std::size_t model_threads = 1;
};

// chat-resident's DRAM holds every live session of the traffic below: live
// KV peaks at 6-10 MiB (bench.live_kv_mb_max), and no run measured so far
// demoted, promoted or hit disk at 16 MiB. The tier is reserved at set-up,
// so oversizing would show in setup_s and peak_rss_mb.
constexpr std::uint64_t kResidentDramKiB = 16 * 1024;
// chat-spill's DRAM holds a third to a half of that live KV, so sessions
// that sit out a think time are demoted and come back from disk (about 0.35
// demotions and 0.04 promotions per lookup, 30% of lookups served from
// disk), while the few sessions in the scheduler's look-ahead window still
// fit beside the fetch buffer (chat-tiered's 512 KiB does not; see the
// prefetch-thrash item in ROADMAP.md).
constexpr std::uint64_t kSpillDramKiB = 2 * 1024;

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec chat;
  // About 13.5 sessions/s: 750 turns in a 15 s window (seven samples beyond
  // p99; 20 s gives ten). 3 workers are about 30% busy, and after
  // fleet-drain's drain the one remaining shard (2 workers) about 45%.
  chat.turns_per_s = 50.0;
  chat.min_turns = 1;
  chat.max_turns = 8;
  chat.think_mean_s = 0.25;
  if (name == "chat-tiered") {
    // serve_demo's sizing: DRAM holds a small fraction of the live KV.
    chat.name = name;
    chat.dram_kib = 512;
    chat.dram_buffer_kib = 128;
    return chat;
  }
  if (name == "chat-spill") {
    chat.name = name;
    chat.dram_kib = kSpillDramKiB;
    chat.dram_buffer_kib = 128;
    return chat;
  }
  if (name == "chat-resident") {
    chat.name = name;
    chat.dram_kib = kResidentDramKiB;
    chat.dram_buffer_kib = 128;
    return chat;
  }
  if (name == "fleet-drain") {
    chat.name = name;
    chat.fleet = true;
    // Two workers per shard (4 in all): after the drain one shard carries all
    // of chat-resident's traffic, which one worker cannot absorb.
    chat.workers = 2;
    chat.dram_kib = kResidentDramKiB;
    chat.dram_buffer_kib = 128;
    return chat;
  }
  if (name == "prefix-fanout") {
    WorkloadSpec w;
    w.name = name;
    w.traffic = "prefix";
    w.slo_ms = 400.0;
    w.turns_per_s = 40.0;  // about 17 sessions/s; 3 workers about 40% busy
    w.min_turns = 1;
    w.max_turns = 3;
    w.think_mean_s = 0.25;
    w.shared_prefix = 128;
    w.dram_kib = 8 * 1024;
    w.dram_buffer_kib = 128;
    return w;
  }
  return std::nullopt;
}

// Every pass opens with this many seconds of the workload's own traffic
// (other sessions, same shape) that is served and checked but not measured,
// so the measured window starts in steady state: after lazy set-up, with
// sessions already mid-conversation, and past the slow first seconds that
// intermittently idle vCPUs show on a shared virtual machine.
constexpr double kWarmupSeconds = 3.0;
constexpr SessionId kWarmupFirstSession = 1000000;

// A run is invalid when the generator's own lateness (p99) exceeds this share
// of the workload's latency limit (25 ms for the chat traffic, 50 ms for
// prefix-fanout).
constexpr double kMaxGenLagShareOfSlo = 0.125;

// --- traffic -----------------------------------------------------------------

struct PlannedTurn {
  std::vector<TokenId> input;
  std::size_t max_reply = 0;
  double think_s = 0.0;  // before this turn (unused for turn 1)
};

struct PlannedSession {
  SessionId id = 0;
  bool measured = true;  // false for warm-up sessions
  double arrival_s = 0.0;
  std::vector<PlannedTurn> turns;
};

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t v : {a, b}) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// The traffic of one (workload, seed, seconds): exactly turns_per_s x
// seconds turns (the last session is cut to fit), in sessions shaped by the
// ShareGPT marginals that arrive at uniform random times over the window (a
// Poisson process conditioned on its count). Think times come from the seed,
// and the tokens of every (session, turn) from their own seed, so content
// never depends on timing.
std::vector<PlannedSession> MakeTraffic(const WorkloadSpec& spec, std::uint64_t seed,
                                        double seconds, std::size_t vocab,
                                        SessionId first_id = 1) {
  const auto budget = static_cast<std::size_t>(spec.turns_per_s * seconds + 0.5);
  ca::ShareGptGenerator shapes(ca::ShareGptConfig{}, MixSeed(seed, 1, 0));
  ca::Rng timing(MixSeed(seed, 2, 0));
  const std::vector<TokenId> prompt =
      spec.shared_prefix == 0
          ? std::vector<TokenId>{}
          : ca::SharedPrefixPrompt(spec.shared_prefix, vocab, /*seed=*/1234);
  std::vector<PlannedSession> out;
  for (std::size_t planned = 0; planned < budget;) {
    const ca::SessionTrace shape = shapes.GenerateSession(static_cast<SessionId>(out.size()));
    PlannedSession& s = out.emplace_back();
    s.id = first_id + static_cast<SessionId>(out.size() - 1);
    const std::size_t turns = std::min<std::size_t>(
        budget - planned, std::clamp<std::size_t>(shape.turns.size(), spec.min_turns,
                                                  spec.max_turns));
    for (std::size_t t = 0; t < turns; ++t) {
      const ca::Turn& shape_turn = shape.turns[std::min(t, shape.turns.size() - 1)];
      ca::Rng content(MixSeed(seed, s.id, t + 1));
      PlannedTurn turn;
      if (t == 0) {
        turn.input = prompt;
      }
      const std::size_t q = std::clamp<std::size_t>(shape_turn.q_tokens, 4, 48);
      for (std::size_t k = 0; k < q; ++k) {
        turn.input.push_back(static_cast<TokenId>(content.NextBounded(vocab)));
      }
      turn.max_reply = std::clamp<std::size_t>(shape_turn.a_tokens, 2, 24);
      turn.think_s = t == 0 ? 0.0 : timing.NextExponential(1.0 / spec.think_mean_s);
      s.turns.push_back(std::move(turn));
    }
    planned += turns;
  }
  std::vector<double> arrivals(out.size());
  for (double& a : arrivals) {
    a = timing.NextDouble() * seconds;
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].arrival_s = arrivals[i];
  }
  return out;
}

// --- the system under test -----------------------------------------------------

ca::ModelConfig ModelFor(const WorkloadSpec& spec, std::size_t threads) {
  ca::ModelConfig c = ca::ModelConfig::Mini().WithThreads(threads);
  if (spec.shared_prefix > 0) {
    // Window headroom for the common prompt: a truncated cache is impure and
    // would leave the prefix index (DESIGN.md §17).
    c.context_window = std::max<std::size_t>(c.context_window, spec.shared_prefix + 512);
  }
  return c;
}

ca::EngineOptions EngineFor(const WorkloadSpec& spec, const std::string& disk_path) {
  ca::EngineOptions e;
  e.store.block_bytes = ca::KiB(32);
  e.store.dram_capacity = ca::KiB(spec.dram_kib);
  e.store.dram_buffer = ca::KiB(spec.dram_buffer_kib);
  e.store.disk_capacity = ca::MiB(256);
  e.store.disk_path = disk_path;
  e.async_save = true;
  if (spec.shared_prefix > 0) {
    e.store.share_prefixes = true;
    e.store.share_chunk_tokens = 32;
  }
  return e;
}

ca::ServerOptions ServerFor(const WorkloadSpec& spec) {
  ca::ServerOptions s;
  s.num_workers = spec.workers;
  s.max_batch_per_worker = 4;
  return s;  // prefetch on, hint window 64, as shipped
}

// Either a single ServingLoop over one engine or a ShardRouter; the driver
// only touches the public calls both offer.
class System {
 public:
  System(const WorkloadSpec& spec, const std::string& disk_path) {
    model_ = std::make_unique<ca::Transformer>(ModelFor(spec, spec.model_threads), 7);
    if (spec.fleet) {
      ca::ClusterOptions c;
      c.num_shards = 2;
      c.server = ServerFor(spec);
      c.engine = EngineFor(spec, disk_path);
      // The inline health poll takes the drain mutex, so during the drain it
      // would block the generator's Submit; no faults are injected here.
      c.health_poll_every = 0;
      router_ = std::make_unique<ca::ShardRouter>(model_.get(), c);
    } else {
      engine_ = std::make_unique<ca::CachedAttentionEngine>(model_.get(),
                                                            EngineFor(spec, disk_path));
      loop_ = std::make_unique<ca::ServingLoop>(engine_.get(), ServerFor(spec));
    }
  }

  const ca::Transformer& model() const { return *model_; }

  std::optional<ca::JobId> TrySubmit(ca::ServeRequest request) {
    return router_ ? router_->TrySubmit(std::move(request))
                   : loop_->TrySubmit(std::move(request));
  }
  std::vector<ca::ServeReply> TakeReplies() {
    return router_ ? router_->TakeReplies() : loop_->TakeReplies();
  }
  void EndSession(SessionId session) {
    if (router_) {
      router_->EndSession(session);
    } else {
      engine_->EndSession(session);
    }
  }
  std::size_t QueueDepth() const {
    if (!router_) {
      return loop_->queue_depth();
    }
    std::size_t depth = 0;
    for (std::size_t i = 0; i < router_->shard_count(); ++i) {
      depth += router_->shard_status(static_cast<ca::ShardId>(i)).queue_depth;
    }
    return depth;
  }
  ca::Status DrainShard(ca::ShardId shard) { return router_->DrainShard(shard); }
  void Shutdown() {
    if (router_) {
      router_->Shutdown();
    } else {
      loop_->Shutdown();
    }
  }

  ca::EngineStats Engine() const {
    if (!router_) {
      return engine_->stats();
    }
    ca::EngineStats sum;
    for (std::size_t i = 0; i < router_->shard_count(); ++i) {
      const ca::EngineStats s = router_->shard_engine(static_cast<ca::ShardId>(i)).stats();
      sum.turns += s.turns;
      sum.prompt_tokens += s.prompt_tokens;
      sum.computed_tokens += s.computed_tokens;
      sum.reused_tokens += s.reused_tokens;
      sum.truncations += s.truncations;
      sum.cache_load_faults += s.cache_load_faults;
      sum.prefill_seconds += s.prefill_seconds;
    }
    return sum;
  }
  // Quiescent read: only at an idle point or after Shutdown.
  std::vector<ca::StoreStats> Stores() const {
    std::vector<ca::StoreStats> out;
    if (!router_) {
      out.push_back(engine_->store().stats());
      return out;
    }
    for (std::size_t i = 0; i < router_->shard_count(); ++i) {
      out.push_back(router_->shard_engine(static_cast<ca::ShardId>(i)).store().stats());
    }
    return out;
  }
  std::uint64_t SessionsMigrated() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; router_ && i < router_->shard_count(); ++i) {
      n += router_->shard_status(static_cast<ca::ShardId>(i)).sessions_migrated_out;
    }
    return n;
  }

 private:
  std::unique_ptr<ca::Transformer> model_;
  std::unique_ptr<ca::CachedAttentionEngine> engine_;
  std::unique_ptr<ca::ServingLoop> loop_;
  std::unique_ptr<ca::ShardRouter> router_;
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// --- one measured pass ---------------------------------------------------------

double NowS() { return static_cast<double>(ca::TraceNowNs()) * 1e-9; }

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(u.ru_utime) + s(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Cumulative engine and store counters, summed over shards (the whole pass,
// warm-up included: the store can only be read at an idle point).
struct Counters {
  double turns = 0, prompt_tokens = 0, computed_tokens = 0, reused_tokens = 0,
         truncations = 0, load_faults = 0;
  double lookups = 0, dram_hits = 0, disk_hits = 0, misses = 0, promotions = 0,
         demotions = 0, bytes_promoted = 0, bytes_demoted = 0, read_bytes = 0, read_ns = 0,
         write_bytes = 0, write_ns = 0, prefix_lookups = 0, prefix_hits = 0,
         shared_bytes_saved = 0, io_faults = 0, sessions_migrated = 0;
};

// Reads the counters at an idle point: every accepted turn answered and
// every finished session ended (which waits for its pending save).
Counters ReadCounters(const System& system) {
  Counters c;
  const ca::EngineStats e = system.Engine();
  c.turns = static_cast<double>(e.turns);
  c.prompt_tokens = static_cast<double>(e.prompt_tokens);
  c.computed_tokens = static_cast<double>(e.computed_tokens);
  c.reused_tokens = static_cast<double>(e.reused_tokens);
  c.truncations = static_cast<double>(e.truncations);
  c.load_faults = static_cast<double>(e.cache_load_faults);
  for (const ca::StoreStats& st : system.Stores()) {
    c.lookups += static_cast<double>(st.lookups);
    c.dram_hits += static_cast<double>(st.dram_hits);
    c.disk_hits += static_cast<double>(st.disk_hits);
    c.misses += static_cast<double>(st.misses);
    c.promotions += static_cast<double>(st.promotions);
    c.demotions += static_cast<double>(st.demotions);
    c.bytes_promoted += static_cast<double>(st.bytes_promoted);
    c.bytes_demoted += static_cast<double>(st.bytes_demoted);
    for (const auto& io : st.tier_io) {
      c.read_bytes += static_cast<double>(io.read_bytes);
      c.read_ns += static_cast<double>(io.read_ns);
      c.write_bytes += static_cast<double>(io.write_bytes);
      c.write_ns += static_cast<double>(io.write_ns);
    }
    c.prefix_lookups += static_cast<double>(st.prefix_lookups);
    c.prefix_hits += static_cast<double>(st.prefix_hits);
    c.shared_bytes_saved += static_cast<double>(st.shared_bytes_saved);
    c.io_faults += static_cast<double>(st.io_faults());
  }
  c.sessions_migrated = static_cast<double>(system.SessionsMigrated());
  return c;
}

// What one pass measured: latency-side numbers cover the measured sessions,
// CPU covers everything served from the start of the measured window on,
// digests cover every reply.
struct PassResult {
  std::vector<TurnRecord> turns;         // one per attempted turn
  std::vector<double> ok_latency_ms;     // succeeded turns only
  std::vector<double> prefill_ms;        // TurnResult::prefill_seconds
  std::vector<double> gen_lag_ms;        // submit time - due time
  std::vector<double> submit_us;         // TrySubmit call durations
  std::vector<double> snapshot_ms;       // MetricsRegistry::Snapshot durations
  DigestMap digests;
  std::size_t attempted = 0, succeeded = 0, failed = 0, rejected = 0;
  std::size_t queue_depth_max = 0;
  std::size_t cache_hits = 0;
  double live_kv_mb_max = 0.0;
  std::size_t window_turns = 0;          // turns answered inside the window
  double cpu_s = 0.0;                    // process CPU from the window start on
  std::size_t cpu_turns = 0;             // turns answered from the window start on
  double drain_ms = 0.0;
};

// Ends finished sessions on its own thread, in the order they finished.
class SessionCloser {
 public:
  explicit SessionCloser(System& system)
      : system_(system), thread_([this] { Run(); }) {}
  ~SessionCloser() { Finish(); }
  SessionCloser(const SessionCloser&) = delete;
  SessionCloser& operator=(const SessionCloser&) = delete;

  void Close(SessionId id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(id);
    }
    cv_.notify_one();
  }

  // Ends every queued session and joins the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Run() {
    ca::Tracer::Get().SetThreadName("bench-closer");
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) {
        return;  // stop_ and nothing left
      }
      const SessionId id = pending_.front();
      pending_.pop_front();
      lock.unlock();
      {
        CA_TRACE_SPAN("bench.end_session", "session", id);
        system_.EndSession(id);
      }
      lock.lock();
    }
  }

  System& system_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SessionId> pending_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// Submits `traffic` open-loop from this thread, polls replies and ends
// finished sessions. The measured window opens `measure_from_s` after the
// schedule's origin and lasts `window_s` (tracing, when `traced`, covers it
// and the tail of its sessions); when `drain_after_s` >= 0, shard 1 is
// drained that long after the origin.
// Returns once every planned turn has been answered or abandoned; aborts the
// process past `deadline_s`.
PassResult ServeTraffic(System& system, const std::vector<PlannedSession>& traffic,
                        double measure_from_s, double window_s, double drain_after_s,
                        bool traced, double deadline_s) {
  PassResult r;
  const double kv_mb_per_token =
      static_cast<double>(system.model().config().kv_bytes_per_token()) / (1024.0 * 1024.0);
  struct Live {
    std::size_t next_turn = 0;    // index of the turn due / in flight
    double due_s = 0.0;           // due time of the in-flight turn
    std::uint64_t kv_tokens = 0;  // history after the last reply
  };
  std::vector<Live> live(traffic.size());
  std::map<ca::JobId, std::size_t> in_flight;  // job -> session index
  using Due = std::pair<double, std::size_t>;  // (due time, session index)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;

  const double t0 = NowS() + 0.01;  // schedule origin
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    due.emplace(t0 + traffic[i].arrival_s, i);
  }
  std::size_t open_sessions = traffic.size();
  double live_kv_mb = 0.0;
  std::thread drainer;
  double next_snapshot = t0 + 1.0;
  // EndSession can wait behind the engine mutex or a drain; the closer takes
  // it off this thread so generator lag measures only the generator.
  SessionCloser closer(system);
  bool measuring = false;
  double cpu0 = 0.0;

  auto finish = [&](std::size_t i) {
    --open_sessions;
    live_kv_mb -= static_cast<double>(live[i].kv_tokens) * kv_mb_per_token;
    live[i].kv_tokens = 0;
    closer.Close(traffic[i].id);
  };

  const double window_start = t0 + measure_from_s;
  const double window_end = window_start + window_s;
  while (open_sessions > 0) {
    double now = NowS();
    if (!measuring && now >= window_start) {
      measuring = true;
      cpu0 = CpuSeconds();
      if (traced) {
        ca::Tracer::Get().Clear();
        ca::Tracer::Get().Enable();
      }
    }
    if (now - t0 > deadline_s) {
      std::fprintf(stderr, "servebench: pass exceeded %.0f s with %zu sessions open; aborting\n",
                   deadline_s, open_sessions);
      std::fflush(stderr);
      std::_Exit(3);
    }
    if (drain_after_s >= 0 && !drainer.joinable() && now >= t0 + drain_after_s) {
      // The drain blocks until the shard's queue is served and its sessions
      // have moved; the generator keeps submitting meanwhile (the router
      // parks the drained shard's turns).
      drainer = std::thread([&system, &r] {
        ca::Tracer::Get().SetThreadName("bench-drain");
        const std::uint64_t start = ca::TraceNowNs();
        ca::Status st;
        {
          CA_TRACE_SPAN("bench.drain_shard", "shard", 1);
          st = system.DrainShard(1);
        }
        r.drain_ms = static_cast<double>(ca::TraceNowNs() - start) * 1e-6;
        if (!st.ok()) {
          std::fprintf(stderr, "servebench: DrainShard failed: %s\n", st.ToString().c_str());
          std::_Exit(3);
        }
      });
    }
    // Submit everything due.
    while (!due.empty() && due.top().first <= now) {
      const auto [due_s, i] = due.top();
      due.pop();
      Live& s = live[i];
      const PlannedTurn& turn = traffic[i].turns[s.next_turn];
      ca::ServeRequest req;
      req.session = traffic[i].id;
      req.input = turn.input;
      req.max_reply_tokens = turn.max_reply;
      const bool measured = traffic[i].measured;
      const double submit_start = NowS();
      std::optional<ca::JobId> job;
      {
        CA_TRACE_SPAN("bench.submit", "session", req.session);
        job = system.TrySubmit(std::move(req));
      }
      if (measured) {
        r.gen_lag_ms.push_back((submit_start - due_s) * 1e3);
        r.submit_us.push_back((NowS() - submit_start) * 1e6);
        ++r.attempted;
      }
      s.due_s = due_s;
      if (!job.has_value()) {
        ++r.rejected;  // counted for warm-up sessions too: any refusal fails the run
        if (measured) {
          r.turns.push_back({TurnOutcome::kRejected, 0.0});
        }
        finish(i);  // the conversation cannot continue without this turn
        continue;
      }
      in_flight.emplace(*job, i);
    }
    // Collect replies.
    std::vector<ca::ServeReply> replies;
    {
      CA_TRACE_SPAN("bench.take_replies");
      replies = system.TakeReplies();
    }
    now = NowS();
    for (ca::ServeReply& reply : replies) {
      const auto it = in_flight.find(reply.job);
      if (it == in_flight.end()) {
        std::fprintf(stderr, "servebench: reply for unknown job %" PRIu64 "\n",
                     static_cast<std::uint64_t>(reply.job));
        std::_Exit(3);
      }
      const std::size_t i = it->second;
      in_flight.erase(it);
      Live& s = live[i];
      const bool measured = traffic[i].measured;
      const double latency_ms = (now - s.due_s) * 1e3;
      r.cpu_turns += measuring ? 1 : 0;
      r.window_turns += measuring && now <= window_end ? 1 : 0;
      if (!reply.status.ok()) {
        ++r.failed;  // counted for warm-up sessions too: any failure fails the run
        if (measured) {
          r.turns.push_back({TurnOutcome::kFailed, latency_ms});
        }
        std::fprintf(stderr, "servebench: session %" PRIu64 " turn %zu failed: %s\n",
                     static_cast<std::uint64_t>(traffic[i].id), s.next_turn + 1,
                     reply.status.ToString().c_str());
        finish(i);
        continue;
      }
      r.digests[{traffic[i].id, static_cast<std::uint32_t>(s.next_turn + 1)}] =
          ReplyDigest(reply.turn.reply);
      const std::uint64_t kv_tokens = reply.turn.prompt_tokens + reply.turn.reply.size();
      live_kv_mb +=
          (static_cast<double>(kv_tokens) - static_cast<double>(s.kv_tokens)) * kv_mb_per_token;
      s.kv_tokens = kv_tokens;
      r.live_kv_mb_max = std::max(r.live_kv_mb_max, live_kv_mb);
      if (measured) {
        ++r.succeeded;
        r.turns.push_back({TurnOutcome::kOk, latency_ms});
        r.ok_latency_ms.push_back(latency_ms);
        r.prefill_ms.push_back(reply.turn.prefill_seconds * 1e3);
        r.cache_hits += reply.turn.cache_hit ? 1 : 0;
      }
      ++s.next_turn;
      if (s.next_turn == traffic[i].turns.size()) {
        finish(i);
      } else {
        due.emplace(now + traffic[i].turns[s.next_turn].think_s, i);
      }
    }
    if (measuring) {
      r.queue_depth_max = std::max(r.queue_depth_max, system.QueueDepth());
    }
    if (now >= next_snapshot) {
      // A metrics scraper's once-a-second pull.
      const double snap_start = NowS();
      {
        CA_TRACE_SPAN("bench.snapshot");
        const ca::MetricsSnapshot snap = ca::MetricsRegistry::Global().Snapshot();
      }
      r.snapshot_ms.push_back((NowS() - snap_start) * 1e3);
      next_snapshot = now + 1.0;
    }
    // Sleep until the next due turn, polling replies at least every 250 us.
    const double wake = std::min(due.empty() ? now + 250e-6 : due.top().first, now + 250e-6);
    if (open_sessions > 0 && wake > NowS()) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wake - NowS()));
    }
  }
  r.cpu_s = CpuSeconds() - cpu0;
  if (traced) {
    ca::Tracer::Get().Disable();
  }
  if (drainer.joinable()) {
    drainer.join();
  }
  closer.Finish();
  return r;
}

// One serving pass on a fresh system: warm-up and measured sessions in one
// schedule, then the counters at the idle point after shutdown.
struct Pass {
  PassResult measured;
  Counters counters;
  double peak_rss_mb = 0.0;
};

Pass RunPass(const WorkloadSpec& spec, const std::string& disk_path,
             const std::vector<PlannedSession>& traffic, double seconds, bool traced,
             double deadline_s) {
  Pass p;
  System system(spec, disk_path);
  p.measured = ServeTraffic(system, traffic, kWarmupSeconds, seconds,
                            spec.fleet ? kWarmupSeconds + seconds / 2.0 : -1, traced,
                            deadline_s);
  p.peak_rss_mb = PeakRssMb();
  system.Shutdown();
  p.counters = ReadCounters(system);
  return p;
}

// --- set-up time ---------------------------------------------------------------

// Set-up (model + engine/store + loop/router, up to the first submit) is
// timed in a child process: back to back for kSetupBurstSeconds before the
// first pass, then once every kSetupIntervalSeconds while the passes run.
// The fastest build is reported. The work is deterministic, but on the
// 4-vCPU VM this was tuned on its speed switched between two levels about a
// third apart for seconds to tens of seconds at a time: over ten seeds, the
// median of two bursts of six builds 20 s apart moved 0.18 (IQR/median)
// between runs and the fastest of two 1.5 s bursts 0.135, while samples
// spread over the whole run catch a fast spell. In a child, the probes' CPU
// time and allocations stay out of this process's cpu_ms_per_turn and
// peak_rss_mb.
constexpr double kSetupBurstSeconds = 1.5;
constexpr double kSetupIntervalSeconds = 0.5;

class SetupProbe {
 public:
  // Forks the prober; call while this process has no other threads.
  SetupProbe(const WorkloadSpec& spec, const std::string& scratch) {
    int control[2];
    int results[2];
    if (pipe(control) != 0 || pipe(results) != 0) {
      Fail("pipe");
    }
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      Fail("fork");
    }
    if (pid_ == 0) {
      close(control[1]);
      close(results[0]);
      RunChild(spec, scratch, control[0], results[1]);
    }
    close(control[0]);
    close(results[1]);
    control_ = control[1];
    results_ = results[0];
    // The first pass starts once the opening burst is over.
    char ready = 0;
    if (read(results_, &ready, 1) != 1) {
      Fail("the prober ended before its first burst");
    }
  }
  SetupProbe(const SetupProbe&) = delete;
  SetupProbe& operator=(const SetupProbe&) = delete;
  ~SetupProbe() {
    if (pid_ > 0) {
      Finish();
    }
  }

  // Stops the prober, waits for it and returns every build time (seconds).
  std::vector<double> Finish() {
    close(control_);
    std::vector<double> times;
    double t = 0.0;
    while (ReadFull(results_, &t, sizeof(t))) {
      times.push_back(t);
    }
    close(results_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || times.empty()) {
      Fail("the prober failed");
    }
    return times;
  }

 private:
  [[noreturn]] static void Fail(const char* what) {
    std::fprintf(stderr, "servebench: set-up probe: %s (%s)\n", what, std::strerror(errno));
    std::_Exit(3);
  }

  static bool ReadFull(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = read(fd, p, n);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        return false;
      }
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  }

  // Builds until the parent closes `control` (or exits), then writes the
  // times to `results` and exits without running this process's exit hooks.
  [[noreturn]] static void RunChild(const WorkloadSpec& spec, const std::string& scratch,
                                    int control, int results) {
    const std::string prefix = scratch + "/servebench." + std::to_string(::getpid()) + ".";
    std::vector<double> times;
    auto build = [&] {
      const double start = NowS();
      { System probe(spec, prefix + std::to_string(times.size()) + ".blocks"); }
      times.push_back(NowS() - start);
    };
    const double burst_start = NowS();
    while (NowS() - burst_start < kSetupBurstSeconds) {
      build();
    }
    const char ready = 1;
    bool ok = write(results, &ready, 1) == 1;
    pollfd stop{control, POLLIN, 0};
    for (;;) {
      const int r = poll(&stop, 1, static_cast<int>(kSetupIntervalSeconds * 1000));
      if (r > 0 || (r < 0 && errno != EINTR)) {
        break;  // closed: the passes are over
      }
      if (r == 0) {
        build();
      }
    }
    const auto* p = reinterpret_cast<const char*>(times.data());
    std::size_t left = times.size() * sizeof(double);
    while (ok && left > 0) {
      const ssize_t put = write(results, p, left);
      if (put < 0 && errno == EINTR) {
        continue;
      }
      ok = put > 0;
      p += put > 0 ? put : 0;
      left -= put > 0 ? static_cast<std::size_t>(put) : 0;
    }
    std::_Exit(ok ? 0 : 1);
  }

  pid_t pid_ = -1;
  int control_ = -1;
  int results_ = -1;
};

// --- reference replies ----------------------------------------------------------

// Serves every planned turn through fresh, independent engines (resident
// store, synchronous saves, no prefix sharing, 1 model thread) with a few
// threads each owning whole sessions, and digests the replies.
DigestMap ReferenceDigests(const WorkloadSpec& spec, const std::vector<PlannedSession>& traffic,
                           std::size_t threads) {
  const ca::Transformer model(ModelFor(spec, 1), 7);
  std::vector<DigestMap> parts(threads);
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      ca::EngineOptions e;
      e.store.block_bytes = ca::KiB(32);
      e.store.dram_capacity = ca::MiB(4);
      e.store.disk_capacity = 0;
      ca::CachedAttentionEngine engine(&model, e);
      for (std::size_t i = k; i < traffic.size(); i += threads) {
        const PlannedSession& s = traffic[i];
        for (std::size_t t = 0; t < s.turns.size(); ++t) {
          auto result = engine.Converse(s.id, s.turns[t].input, s.turns[t].max_reply);
          if (!result.ok()) {
            std::fprintf(stderr, "servebench: reference turn failed: %s\n",
                         result.status().ToString().c_str());
            std::_Exit(3);
          }
          parts[k][{s.id, static_cast<std::uint32_t>(t + 1)}] = ReplyDigest(result->reply);
        }
        engine.EndSession(s.id);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  DigestMap all;
  for (DigestMap& p : parts) {
    all.merge(p);
  }
  return all;
}

// --- host fingerprint --------------------------------------------------------------

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  ca::internal::TraceJsonEscape(out, s);
  return out + "\"";
}

// --- metrics output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --- per-layer reduction ------------------------------------------------------------

double Share(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct TraceReduction {
  std::vector<Metric> metrics;
  std::size_t self_time_mismatches = 0;
  std::map<std::string, double> layer_self_ms;
};

// Reduces the traced pass's events: self times per layer, per-turn core
// self time, model/store span statistics, and the scheduler's queue wait
// (sched.enqueue -> sched.dequeue of the same job).
TraceReduction ReduceTrace(const std::vector<ca::TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> enqueued;  // (session, job)
  std::vector<double> queue_wait_ms;
  std::uint64_t first_ns = UINT64_MAX, last_ns = 0;  // the traced interval
  for (const ca::TraceEvent& e : events) {
    if (e.name == nullptr) {
      continue;
    }
    first_ns = std::min(first_ns, e.ts_ns);
    last_ns = std::max(last_ns, e.ts_ns + e.dur_ns);
    if (e.ph == 'X') {
      spans.push_back(Span{e.tid, e.name, e.ts_ns, e.dur_ns, e.args});
    } else if (e.ph == 'i' && std::strncmp(e.name, "sched.", 6) == 0) {
      const auto key = std::make_pair(SpanArg(e.args, "session").value_or(0),
                                      SpanArg(e.args, "job").value_or(0));
      if (std::strcmp(e.name, "sched.enqueue") == 0) {
        enqueued[key] = e.ts_ns;
      } else if (std::strcmp(e.name, "sched.dequeue") == 0) {
        if (const auto it = enqueued.find(key); it != enqueued.end()) {
          queue_wait_ms.push_back(static_cast<double>(e.ts_ns - it->second) * 1e-6);
          enqueued.erase(it);
        }
      }
    }
  }
  BuildSpanTree(spans);
  const std::vector<std::uint64_t> subtree = SubtreeSelfSums(spans);
  TraceReduction out;
  // Per-turn core self time: core-layer self time inside each serve.turn.
  std::vector<double> core_self_ms;
  std::vector<double> service_ms, forward_ms, read_ms, put_ms;
  std::vector<double> batch_jobs;
  double turn_ns = 0.0, forward_in_turn_ns = 0.0, refresh_ns = 0.0, move_ns = 0.0;
  double forward_tokens = 0.0, forward_ns = 0.0;
  std::vector<int> turn_of(spans.size(), -1);  // enclosing serve.turn, if any
  std::vector<double> core_in_turn(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = LayerOf(s.name);
    out.layer_self_ms[layer] += static_cast<double>(s.self_ns) * 1e-6;
    if (s.parent >= 0) {
      turn_of[i] = turn_of[static_cast<std::size_t>(s.parent)];
    }
    if (s.name == "serve.turn") {
      turn_of[i] = static_cast<int>(i);
      turn_ns += static_cast<double>(s.dur_ns);
      const double d = static_cast<double>(s.dur_ns);
      const double sum = static_cast<double>(subtree[i]);
      if (std::abs(sum - d) > 1e-6 * d + 1000.0) {
        ++out.self_time_mismatches;
      }
    }
    if (layer == "core" && turn_of[i] >= 0) {
      core_in_turn[static_cast<std::size_t>(turn_of[i])] += static_cast<double>(s.self_ns);
    }
    const bool parent_is = [&](const char* prefix) {
      return s.parent >= 0 &&
             spans[static_cast<std::size_t>(s.parent)].name.rfind(prefix, 0) == 0;
    }("store.put");
    if (s.name == "model.forward") {
      forward_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
      forward_ns += static_cast<double>(s.dur_ns);
      forward_tokens += static_cast<double>(SpanArg(s.args, "tokens").value_or(0));
      if (turn_of[i] >= 0) {
        forward_in_turn_ns += static_cast<double>(s.dur_ns);
      }
    } else if (s.name == "store.read_payload") {
      read_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    } else if ((s.name == "store.put" || s.name == "store.put_shared") && !parent_is) {
      put_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    } else if (s.name == "serve.refresh") {
      refresh_ns += static_cast<double>(s.dur_ns);
    } else if (s.name == "store.move") {
      move_ns += static_cast<double>(s.dur_ns);
    } else if (s.name == "serve.batch") {
      batch_jobs.push_back(static_cast<double>(SpanArg(s.args, "jobs").value_or(0)));
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "serve.turn") {
      core_self_ms.push_back(core_in_turn[i] * 1e-6);
      service_ms.push_back(static_cast<double>(spans[i].dur_ns) * 1e-6);
    }
  }
  out.metrics = {
      {"serve.service_ms_p50", Percentile(service_ms, 50), "ms"},
      {"serve.service_ms_p99", Percentile(service_ms, 99), "ms"},
      {"serve.refresh_busy_share",
       Share(refresh_ns, last_ns > first_ns ? static_cast<double>(last_ns - first_ns) : 0.0),
       "share"},
      {"sched.queue_wait_ms_p50", Percentile(queue_wait_ms, 50), "ms"},
      {"sched.queue_wait_ms_p99", Percentile(queue_wait_ms, 99), "ms"},
      {"sched.batch_jobs_mean", Mean(batch_jobs), "jobs"},
      {"core.self_ms_p50", Percentile(core_self_ms, 50), "ms"},
      {"model.forward_ms_p50", Percentile(forward_ms, 50), "ms"},
      {"model.forward_share", Share(forward_in_turn_ns, turn_ns), "share"},
      {"model.tokens_per_s", Share(forward_tokens, forward_ns * 1e-9), "tokens/s"},
      {"store.move_ms_total", move_ns * 1e-6, "ms"},
      {"store.read_ms_p50", Percentile(read_ms, 50), "ms"},
      {"store.read_ms_p99", Percentile(read_ms, 99), "ms"},
      {"store.put_ms_p50", Percentile(put_ms, 50), "ms"},
      {"store.put_ms_p99", Percentile(put_ms, 99), "ms"},
  };
  return out;
}

// Engine- and store-side per-layer metrics from the public stats structs.
std::vector<Metric> CounterMetrics(const Counters& c) {
  // Bytes the put path wrote = tier writes minus tier-to-tier moves; with
  // sharing, the deduplicated bytes were put but never written.
  const double put_written =
      std::max(0.0, c.write_bytes - c.bytes_promoted - c.bytes_demoted);
  const double mib = 1024.0 * 1024.0;
  return {
      {"core.reuse_share", Share(c.reused_tokens, c.prompt_tokens), "share"},
      {"core.computed_tokens_per_turn", Share(c.computed_tokens, c.turns), "tokens"},
      {"core.truncations", c.truncations, "count"},
      {"core.load_faults", c.load_faults, "count"},
      {"store.dram_hit_share", Share(c.dram_hits, c.lookups), "share"},
      {"store.disk_hit_share", Share(c.disk_hits, c.lookups), "share"},
      {"store.miss_share", Share(c.misses, c.lookups), "share"},
      {"store.promotions_per_lookup", Share(c.promotions, c.lookups), "count"},
      {"store.demotions_per_lookup", Share(c.demotions, c.lookups), "count"},
      {"store.promoted_mb_per_turn", Share(c.bytes_promoted / mib, c.turns), "MB"},
      {"store.io_read_gbps", Share(c.read_bytes, c.read_ns), "GB/s"},
      {"store.io_write_gbps", Share(c.write_bytes, c.write_ns), "GB/s"},
      {"store.prefix_hit_share", Share(c.prefix_hits, c.prefix_lookups), "share"},
      {"store.dedup_factor",
       put_written == 0.0 ? 1.0 : (put_written + c.shared_bytes_saved) / put_written, "ratio"},
      {"store.io_faults", c.io_faults, "count"},
  };
}

// --- main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
  std::string digests;            // recorded-digest table; empty: none
  bool reference_digest = false;  // print the replay's digest, serve nothing
};

// The reference replay runs on this many threads.
constexpr std::size_t kReferenceThreads = 4;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--digests FILE] [--reference-digest]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default of one per
  // thread, how much freed memory each arena keeps depends on thread timing,
  // and peak_rss_mb moved 0.13 (IQR/median, chat-resident, ten seeds) with
  // it; with one arena five seeds read 32.3-34.4 MB at the same CPU per turn.
  mallopt(M_ARENA_MAX, 1);
  Args a;
  bool bad_args = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--reference-digest") {
      a.reference_digest = true;
      continue;
    }
    if (i + 1 >= argc) {
      bad_args = true;
      break;
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else if (k == "--digests") {
      a.digests = v;
    } else {
      bad_args = true;
    }
  }
  const std::optional<WorkloadSpec> found = FindWorkload(a.workload);
  if (bad_args || !found.has_value() || a.seconds <= 0) {
    return Usage(argv[0]);
  }
  const WorkloadSpec& spec = *found;
  ca::Logger::Get().set_min_level(ca::LogLevel::kWarn);
  ca::Tracer::Get().SetThreadName("bench-generator");

  RecordedDigests recorded;
  if (!a.digests.empty()) {
    std::ifstream in(a.digests);
    std::optional<RecordedDigests> parsed;
    if (in) {
      parsed = ParseRecordedDigests(in);
    }
    if (!parsed.has_value()) {
      std::fprintf(stderr, "servebench: cannot read the digest table %s\n", a.digests.c_str());
      return 2;
    }
    recorded = std::move(*parsed);
  }
  const std::string record_key = RecordKey(spec.traffic, a.seed, a.seconds, a.trace);

  const std::size_t vocab = ModelFor(spec, 1).vocab_size;
  // A traced run serves the traffic twice (traced, then untraced for the
  // overhead), each over half of --seconds, so it measures as long as an
  // untraced run.
  const double window_s = a.trace ? a.seconds / 2.0 : a.seconds;
  // Warm-up sessions (their own seed and ids) over [0, kWarmupSeconds), then
  // the measured traffic over the next window_s.
  std::vector<PlannedSession> traffic =
      MakeTraffic(spec, MixSeed(a.seed, 3, 0), kWarmupSeconds, vocab, kWarmupFirstSession);
  for (PlannedSession& s : traffic) {
    s.measured = false;
  }
  std::size_t measured_sessions = 0, measured_turns = 0;
  for (PlannedSession& s : MakeTraffic(spec, a.seed, window_s, vocab)) {
    s.arrival_s += kWarmupSeconds;
    ++measured_sessions;
    measured_turns += s.turns.size();
    traffic.push_back(std::move(s));
  }
  if (a.reference_digest) {
    const DigestMap reference = ReferenceDigests(spec, traffic, kReferenceThreads);
    std::printf("%s %016" PRIx64 "\n", record_key.c_str(), CombinedDigest(reference));
    return 0;
  }

  int disk_seq = 0;
  auto disk_path = [&] {
    return a.scratch + "/servebench." + std::to_string(::getpid()) + "." +
           std::to_string(disk_seq++) + ".blocks";
  };
  SetupProbe setup_probe(spec, a.scratch);
  const int passes = a.trace ? 2 : 1;
  const double deadline_s = 150.0 / passes;

  // Traced pass first (per-layer numbers), then the untraced pass every
  // end-to-end number and the tracing overhead come from.
  std::optional<Pass> traced;
  std::vector<ca::TraceEvent> events;
  std::size_t trace_dropped = 0;
  if (a.trace) {
    traced = RunPass(spec, disk_path(), traffic, window_s, true, deadline_s);
    events = ca::Tracer::Get().SnapshotEvents();
    trace_dropped = ca::Tracer::Get().dropped_count();
    ca::Tracer::Get().Clear();
  }
  const Pass plain = RunPass(spec, disk_path(), traffic, window_s, false, deadline_s);
  const std::vector<double> setup_s = setup_probe.Finish();

  // Output check. Every pass must reproduce the recorded digest when there
  // is one; without one (or on a mismatch, to name the first diverging
  // turn) every reply is checked against the sequential replay.
  std::vector<const Pass*> checked = {&plain};
  if (traced) {
    checked.push_back(&*traced);
  }
  bool correct = true;
  std::optional<DigestMap> reference;
  const char* record_state = "unrecorded";
  for (const Pass* pass : checked) {
    const char* which = pass == &plain ? "untraced" : "traced";
    const PassResult& pm = pass->measured;
    correct = correct && pm.failed == 0 && pm.rejected == 0;
    const RecordCheck rc = CheckRecorded(recorded, record_key, CombinedDigest(pm.digests));
    if (rc == RecordCheck::kMatch) {
      if (std::strcmp(record_state, "mismatch") != 0) {
        record_state = "match";
      }
      continue;
    }
    if (rc == RecordCheck::kMismatch) {
      record_state = "mismatch";
      correct = false;
      std::fprintf(stderr, "servebench: DEFECT: combined reply digest of the %s pass differs "
                   "from the one recorded for \"%s\"\n", which, record_key.c_str());
    }
    if (!reference.has_value()) {
      reference = ReferenceDigests(spec, traffic, kReferenceThreads);
    }
    correct = correct && RunCorrect(*reference, pm.digests, pm.failed, pm.rejected);
    if (const auto diverged = FirstDivergence(*reference, pm.digests)) {
      std::fprintf(stderr,
                   "servebench: DEFECT: reply differs from the sequential reference first at "
                   "session %" PRIu64 " turn %u (%s pass)\n",
                   diverged->first, diverged->second, which);
    } else if (rc == RecordCheck::kMismatch) {
      std::fprintf(stderr, "servebench: the replay agrees with the served replies: the model "
                   "or engine output changed since the digest was recorded\n");
    }
  }

  // Generator health: when the generator itself fell behind, the latencies
  // describe the driver, not the server, and the run is invalid.
  const PassResult& m = plain.measured;
  const double gen_lag_p99 = Percentile(m.gen_lag_ms, 99);
  const double max_gen_lag_ms = spec.slo_ms * kMaxGenLagShareOfSlo;
  const bool generator_ok = gen_lag_p99 <= max_gen_lag_ms;
  if (!generator_ok) {
    std::fprintf(stderr, "servebench: INVALID: generator lag p99 %.2f ms > %.1f ms\n",
                 gen_lag_p99, max_gen_lag_ms);
  }

  const std::vector<Metric> e2e = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      // Steady state: every turn answered inside the window (the warm-up's
      // sessions continue into it), per second of window.
      {"turns_per_s", static_cast<double>(m.window_turns) / window_s, "turns/s"},
      // Latency is gated as slo_met, the share of attempted turns within the
      // limit. The percentiles (bench.turn_p50/p95/p99_ms and the record
      // line) moved 1.5-2x between runs minutes apart on a shared 4-vCPU
      // VM, beyond any bound the gate allows (0.25).
      {"slo_met", SloMet(m.turns, spec.slo_ms), "share"},
      {"cpu_ms_per_turn", Share(m.cpu_s * 1e3, static_cast<double>(m.cpu_turns)), "ms"},
      {"peak_rss_mb", plain.peak_rss_mb, "MB"},
  };

  std::vector<Metric> layer;
  if (traced) {
    const PassResult& t = traced->measured;
    const TraceReduction red = ReduceTrace(events);
    layer = {
        {"bench.gen_lag_p99_ms", Percentile(t.gen_lag_ms, 99), "ms"},
        {"bench.turns_attempted", static_cast<double>(t.attempted), "count"},
        {"bench.turns_succeeded", static_cast<double>(t.succeeded), "count"},
        {"bench.turns_failed", static_cast<double>(t.failed), "count"},
        {"bench.turns_rejected", static_cast<double>(t.rejected), "count"},
        {"bench.fail_share",
         Share(static_cast<double>(t.failed + t.rejected), static_cast<double>(t.attempted)),
         "share"},
        {"bench.turn_p50_ms", Percentile(m.ok_latency_ms, 50), "ms"},
        {"bench.turn_p95_ms", Percentile(m.ok_latency_ms, 95), "ms"},
        {"bench.turn_p99_ms", Percentile(m.ok_latency_ms, 99), "ms"},
        {"bench.p99_tail_samples",
         static_cast<double>(SamplesBeyondPercentile(m.ok_latency_ms.size(), 99)), "count"},
        {"bench.live_kv_mb_max", t.live_kv_mb_max, "MB"},
        {"cluster.submit_us_p99", spec.fleet ? Percentile(t.submit_us, 99) : 0.0, "us"},
        {"cluster.drain_ms", t.drain_ms, "ms"},
        {"cluster.sessions_migrated", traced->counters.sessions_migrated, "count"},
        {"serve.submit_us_p99", spec.fleet ? 0.0 : Percentile(t.submit_us, 99), "us"},
        {"serve.queue_depth_max", static_cast<double>(t.queue_depth_max), "jobs"},
        {"core.prefill_ms_p50", Percentile(t.prefill_ms, 50), "ms"},
        {"core.prefill_ms_p99", Percentile(t.prefill_ms, 99), "ms"},
        {"core.hit_share",
         Share(static_cast<double>(t.cache_hits), static_cast<double>(t.succeeded)), "share"},
    };
    const std::vector<Metric> counted = CounterMetrics(traced->counters);
    layer.insert(layer.end(), red.metrics.begin(), red.metrics.end());
    layer.insert(layer.end(), counted.begin(), counted.end());
    layer.insert(layer.end(), {
        {"obs.snapshot_ms", Percentile(t.snapshot_ms, 50), "ms"},
        {"obs.trace_overhead",
         Share(Percentile(t.ok_latency_ms, 50), Percentile(m.ok_latency_ms, 50)) - 1.0, "ratio"},
        {"obs.trace_dropped", static_cast<double>(trace_dropped), "count"},
        {"obs.self_time_mismatches", static_cast<double>(red.self_time_mismatches), "count"},
        {"obs.trace_complete", trace_dropped == 0 && red.self_time_mismatches == 0 ? 1.0 : 0.0,
         "bool"},
    });
    for (const char* name : {"bench", "cluster", "serve", "core", "model", "store", "other"}) {
      const auto it = red.layer_self_ms.find(name);
      layer.push_back({std::string("self_ms.") + name,
                       it == red.layer_self_ms.end() ? 0.0 : it->second, "ms"});
    }
    if (trace_dropped != 0 || red.self_time_mismatches != 0) {
      std::fprintf(stderr, "servebench: per-layer numbers INCOMPLETE: %zu trace events dropped, "
                   "%zu turns whose self times do not add up\n",
                   trace_dropped, red.self_time_mismatches);
    }
  }

  // The full record, then the result line.
  utsname u{};
  uname(&u);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, CombinedDigest(m.digests));
  const std::string report =
      "{\"workload\": " + JsonString(spec.name) + ", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + Num(a.seconds) + ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"digest\": \"" + digest + "\", \"recorded_digest\": \"" + record_state +
      "\", \"correct\": " + (correct ? "true" : "false") +
      ", \"valid\": " + (generator_ok ? "true" : "false") +
      ", \"sessions\": " + std::to_string(measured_sessions) +
      ", \"turns\": {\"planned\": " + std::to_string(measured_turns) +
      ", \"attempted\": " + std::to_string(m.attempted) +
      ", \"succeeded\": " + std::to_string(m.succeeded) +
      ", \"failed\": " + std::to_string(m.failed) +
      ", \"rejected\": " + std::to_string(m.rejected) +
      ", \"p50_ms\": " + Num(Percentile(m.ok_latency_ms, 50)) +
      ", \"p95_ms\": " + Num(Percentile(m.ok_latency_ms, 95)) +
      ", \"p99_ms\": " + Num(Percentile(m.ok_latency_ms, 99)) +
      ", \"p99_tail_samples\": " +
      std::to_string(SamplesBeyondPercentile(m.ok_latency_ms.size(), 99)) +
      "}, \"gen_lag_p99_ms\": " + Num(gen_lag_p99) + ", \"slo_ms\": " + Num(spec.slo_ms) +
      ", \"setup_builds\": " + std::to_string(setup_s.size()) +
      ", \"host\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + JsonString(CpuModel()) +
      ", \"kernel\": " + JsonString(std::string(u.sysname) + " " + u.release) +
      ", \"build_type\": " + JsonString(CA_BENCH_BUILD_TYPE) +
      ", \"disk_fs\": " + JsonString(FsType(a.scratch)) + "}" +
      ", \"sizing\": {\"shards\": " + std::to_string(spec.fleet ? 2 : 1) +
      ", \"workers_per_shard\": " + std::to_string(spec.workers) +
      ", \"model_threads\": " + std::to_string(spec.model_threads) +
      ", \"turns_per_s_offered\": " + Num(spec.turns_per_s) +
      ", \"dram_kib\": " + std::to_string(spec.dram_kib) +
      ", \"dram_buffer_kib\": " + std::to_string(spec.dram_buffer_kib) +
      ", \"shared_prefix\": " + std::to_string(spec.shared_prefix) + "}" +
      ", \"end_to_end\": " + MetricsJson(e2e) + ", \"per_layer\": " + MetricsJson(layer) + "}";
  std::printf("servebench-report %s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct && generator_ok ? "true" : "false", m.attempted, m.failed + m.rejected,
              MetricsJson(a.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
