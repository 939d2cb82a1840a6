// Mini-transformer forward-pass tests: determinism, incremental-decode
// consistency, GQA variants, CachedAttention partial prefill equivalence,
// and the bitwise oracle for the K mirror and attention kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/model/sampler.h"
#include "src/model/tokenizer.h"
#include "src/model/transformer.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace ca {
namespace {

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

TEST(TransformerTest, ForwardShape) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(5, 2, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  EXPECT_EQ(logits.dim(0), 5U);
  EXPECT_EQ(logits.dim(1), model.config().vocab_size);
  EXPECT_EQ(cache.seq_len(), 5U);
}

TEST(TransformerTest, DeterministicAcrossInstances) {
  const Transformer a(ModelConfig::Tiny(), 42);
  const Transformer b(ModelConfig::Tiny(), 42);
  KvCache ca_ = a.MakeCache(PeMode::kDecoupled);
  KvCache cb = b.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(8, 3, a.config().vocab_size);
  const Tensor la = a.Forward(tokens, ca_);
  const Tensor lb = b.Forward(tokens, cb);
  EXPECT_EQ(MaxAbsDiff(la, lb), 0.0f);
}

TEST(TransformerTest, DifferentSeedsDifferentWeights) {
  const Transformer a(ModelConfig::Tiny(), 1);
  const Transformer b(ModelConfig::Tiny(), 2);
  KvCache ca_ = a.MakeCache(PeMode::kDecoupled);
  KvCache cb = b.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(4, 3, a.config().vocab_size);
  EXPECT_GT(MaxAbsDiff(a.Forward(tokens, ca_), b.Forward(tokens, cb)), 1e-3f);
}

// Prefilling token-by-token must equal prefilling the whole prompt at once:
// the KV cache makes incremental attention exact, not approximate.
TEST(TransformerTest, IncrementalMatchesBatchPrefill) {
  const Transformer model(ModelConfig::Mini(), 7);
  const auto tokens = MakeTokens(12, 5, model.config().vocab_size);

  KvCache batch_cache = model.MakeCache(PeMode::kDecoupled);
  const Tensor batch_logits = model.Forward(tokens, batch_cache);

  KvCache inc_cache = model.MakeCache(PeMode::kDecoupled);
  Tensor last;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const TokenId tok[] = {tokens[i]};
    last = model.Forward(tok, inc_cache);
  }
  EXPECT_EQ(inc_cache.seq_len(), batch_cache.seq_len());
  // Compare last-position logits.
  const Tensor batch_last =
      Tensor::ConstView(batch_logits.row(tokens.size() - 1), {1, model.config().vocab_size});
  EXPECT_LT(MaxAbsDiff(last, batch_last), 2e-4f);
}

// The CachedAttention property on the happy path: prefilling new tokens on
// top of a cached history gives the same logits as prefilling the full
// prompt.
TEST(TransformerTest, PartialPrefillMatchesFullPrefill) {
  const Transformer model(ModelConfig::Mini(), 11);
  const auto history = MakeTokens(20, 6, model.config().vocab_size);
  const auto fresh = MakeTokens(5, 7, model.config().vocab_size);

  // Full prompt in one go.
  std::vector<TokenId> full = history;
  full.insert(full.end(), fresh.begin(), fresh.end());
  KvCache full_cache = model.MakeCache(PeMode::kDecoupled);
  const Tensor full_logits = model.Forward(full, full_cache);

  // History first (as a previous turn would), then only the new tokens.
  KvCache part_cache = model.MakeCache(PeMode::kDecoupled);
  (void)model.Forward(history, part_cache);
  const Tensor part_logits = model.Forward(fresh, part_cache);

  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Tensor full_row = Tensor::ConstView(full_logits.row(history.size() + i),
                                              {1, model.config().vocab_size});
    const Tensor part_row =
        Tensor::ConstView(part_logits.row(i), {1, model.config().vocab_size});
    EXPECT_LT(MaxAbsDiff(full_row, part_row), 2e-4f) << "new token " << i;
  }
}

// Without truncation, coupled and decoupled PE caches are numerically
// equivalent — decoupling only changes *when* RoPE is applied.
TEST(TransformerTest, CoupledAndDecoupledAgreeWithoutTruncation) {
  const Transformer model(ModelConfig::Mini(), 13);
  const auto tokens = MakeTokens(16, 8, model.config().vocab_size);
  KvCache dec = model.MakeCache(PeMode::kDecoupled);
  KvCache cpl = model.MakeCache(PeMode::kCoupled);
  const Tensor ld = model.Forward(tokens, dec);
  const Tensor lc = model.Forward(tokens, cpl);
  EXPECT_LT(MaxAbsDiff(ld, lc), 2e-4f);
}

// The parallel determinism contract (DESIGN.md §9): any num_threads gives
// logits AND cache contents bitwise-identical to the serial reference, in
// both PE modes, for prefill and for a decode step on warm history.
TEST(TransformerTest, ThreadedForwardBitwiseMatchesSerial) {
  const ModelConfig serial_config = ModelConfig::Mini();
  const Transformer serial(serial_config, 21);
  const Transformer threaded(serial_config.WithThreads(4), 21);
  const auto prompt = MakeTokens(24, 9, serial_config.vocab_size);

  for (const PeMode mode : {PeMode::kDecoupled, PeMode::kCoupled}) {
    KvCache scache = serial.MakeCache(mode);
    KvCache tcache = threaded.MakeCache(mode);

    const Tensor sl = serial.Forward(prompt, scache);
    const Tensor tl = threaded.Forward(prompt, tcache);
    ASSERT_EQ(sl.numel(), tl.numel());
    EXPECT_EQ(std::memcmp(sl.data(), tl.data(), sl.numel() * sizeof(float)), 0)
        << "prefill logits diverge, mode " << static_cast<int>(mode);

    const auto sbytes = scache.SerializeTokenMajor();
    const auto tbytes = tcache.SerializeTokenMajor();
    EXPECT_EQ(sbytes, tbytes) << "cache contents diverge, mode " << static_cast<int>(mode);

    const TokenId tok[] = {3};
    const Tensor sd = serial.Forward(tok, scache);
    const Tensor td = threaded.Forward(tok, tcache);
    EXPECT_EQ(std::memcmp(sd.data(), td.data(), sd.numel() * sizeof(float)), 0)
        << "decode-step logits diverge, mode " << static_cast<int>(mode);
  }
}

// ---------------------------------------------------------------------------
// Bitwise oracle. ReferenceForward is the forward pass as it was before the
// cache kept a position-encoded K mirror: every call re-embeds the whole
// decoupled history with cos/sin evaluated per pair, and the attention is
// the scalar DotUnchecked / AxpyUnchecked loop over token-major K rows.
// Transformer::Forward must reproduce it bit for bit — logits, cache bytes
// and every observed attention distribution — across turn-shaped sequences
// of forwards and cache mutations.

// RoPE of every head of `vec` (len floats) at `pos`, cos/sin per call.
void ReferenceRope(float* vec, std::size_t len, std::size_t head_dim, float theta,
                   std::size_t pos) {
  const auto p = static_cast<float>(pos);
  for (std::size_t off = 0; off < len; off += head_dim) {
    for (std::size_t i = 0; i < head_dim / 2; ++i) {
      const float inv_freq =
          std::pow(theta, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = p * inv_freq;
      const float c = std::cos(angle);
      const float s = std::sin(angle);
      const float x = vec[off + 2 * i];
      const float y = vec[off + 2 * i + 1];
      vec[off + 2 * i] = x * c - y * s;
      vec[off + 2 * i + 1] = x * s + y * c;
    }
  }
}

Tensor ReferenceForward(const Transformer& model, std::span<const TokenId> tokens,
                        KvCache& cache, AttentionObserver* observer) {
  const ModelConfig& c = model.config();
  const std::size_t n = tokens.size();
  const std::size_t d = c.d_model;
  const std::size_t head_dim = c.head_dim();
  const std::size_t kv_dim = c.kv_dim();
  const std::size_t q_dim = c.q_dim();
  const std::size_t history = cache.seq_len();
  const std::size_t total = history + n;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));

  Tensor x({n, d});
  for (std::size_t t = 0; t < n; ++t) {
    std::memcpy(x.row(t), model.embedding().row(static_cast<std::size_t>(tokens[t])),
                d * sizeof(float));
  }
  for (std::size_t layer = 0; layer < c.n_layers; ++layer) {
    const LayerWeights& w = model.layer(layer);
    Tensor xn({n, d});
    RmsNormRows(x, w.rms_att.span(), xn);
    Tensor q({n, q_dim});
    Tensor k({n, kv_dim});
    Tensor v({n, kv_dim});
    MatMulTransposedB(xn, w.wq, q);
    MatMulTransposedB(xn, w.wk, k);
    MatMulTransposedB(xn, w.wv, v);
    for (std::size_t t = 0; t < n; ++t) {
      if (cache.pe_mode() == PeMode::kCoupled) {
        ReferenceRope(k.row(t), kv_dim, head_dim, c.rope_theta, history + t);
      }
      cache.Append(layer, {k.row(t), kv_dim}, {v.row(t), kv_dim});
    }
    Tensor k_eff({total, kv_dim});
    std::memcpy(k_eff.data(), cache.LayerK(layer).data(), total * kv_dim * sizeof(float));
    if (cache.pe_mode() == PeMode::kDecoupled) {
      for (std::size_t t = 0; t < total; ++t) {
        ReferenceRope(k_eff.row(t), kv_dim, head_dim, c.rope_theta, t);
      }
    }
    for (std::size_t t = 0; t < n; ++t) {
      ReferenceRope(q.row(t), q_dim, head_dim, c.rope_theta, history + t);
    }
    Tensor attn_out({n, q_dim});
    std::vector<float> scores(total);
    const float* v_base = cache.LayerV(layer).data();
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t h = 0; h < c.n_heads; ++h) {
        const std::size_t ctx = history + t + 1;
        const std::size_t kv_off = (h / c.gqa_group()) * head_dim;
        const float* qh = q.row(t) + h * head_dim;
        for (std::size_t j = 0; j < ctx; ++j) {
          scores[j] = DotUnchecked(qh, k_eff.row(j) + kv_off, head_dim) * inv_sqrt_d;
        }
        SoftmaxRow({scores.data(), ctx});
        if (observer != nullptr) {
          observer->OnAttention(layer, h, history + t, {scores.data(), ctx});
        }
        float* oh = attn_out.row(t) + h * head_dim;
        std::memset(oh, 0, head_dim * sizeof(float));
        for (std::size_t j = 0; j < ctx; ++j) {
          AxpyUnchecked(scores[j], v_base + j * kv_dim + kv_off, oh, head_dim);
        }
      }
    }
    Tensor proj({n, d});
    MatMulTransposedB(attn_out, w.wo, proj);
    AddInPlace(x, proj);

    Tensor fn({n, d});
    RmsNormRows(x, w.rms_ffn.span(), fn);
    Tensor gate({n, c.d_ff});
    Tensor up({n, c.d_ff});
    MatMulTransposedB(fn, w.w1, gate);
    MatMulTransposedB(fn, w.w3, up);
    SiluInPlace(gate);
    MulInPlace(gate, up);
    Tensor down({n, d});
    MatMulTransposedB(gate, w.w2, down);
    AddInPlace(x, down);
  }
  Tensor xn({n, d});
  RmsNormRows(x, model.rms_final().span(), xn);
  Tensor logits({n, c.vocab_size});
  MatMulTransposedB(xn, model.lm_head(), logits);
  return logits;
}

// Flattens every observed distribution, with its coordinates, in call order.
class RecordingObserver : public AttentionObserver {
 public:
  void OnAttention(std::size_t layer, std::size_t head, std::size_t query_pos,
                   std::span<const float> probs) override {
    log_.push_back(static_cast<float>(layer));
    log_.push_back(static_cast<float>(head));
    log_.push_back(static_cast<float>(query_pos));
    log_.insert(log_.end(), probs.begin(), probs.end());
  }
  std::vector<float> Take() { return std::exchange(log_, {}); }

 private:
  std::vector<float> log_;
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// (pe mode, MHA instead of GQA, compute threads, observer attached)
class ForwardOracle
    : public ::testing::TestWithParam<std::tuple<PeMode, bool, std::size_t, bool>> {};

TEST_P(ForwardOracle, MatchesReferenceBitwiseAcrossTurnSequence) {
  const auto [mode, mha, threads, with_observer] = GetParam();
  const ModelConfig config =
      (mha ? ModelConfig::MiniGqa1() : ModelConfig::Mini()).WithThreads(threads);
  const Transformer model(config, 31);
  KvCache cache = model.MakeCache(mode);
  KvCache ref = model.MakeCache(mode);
  RecordingObserver got_obs;
  RecordingObserver want_obs;
  AttentionObserver* got_observer = with_observer ? &got_obs : nullptr;
  AttentionObserver* want_observer = with_observer ? &want_obs : nullptr;
  TokenId next = 0;

  // One forward through both paths; next becomes the greedy continuation.
  auto step = [&](std::span<const TokenId> tokens, const std::string& what) {
    const Tensor got = model.Forward(tokens, cache, got_observer);
    const Tensor want = ReferenceForward(model, tokens, ref, want_observer);
    ASSERT_EQ(got.numel(), want.numel()) << what;
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.numel() * sizeof(float)), 0)
        << "logits diverge: " << what;
    ASSERT_EQ(cache.SerializeTokenMajor(), ref.SerializeTokenMajor())
        << "cache bytes diverge: " << what;
    ASSERT_TRUE(SameBits(got_obs.Take(), want_obs.Take())) << "observations diverge: " << what;
    next = model.Argmax(got, got.dim(0) - 1);
  };
  auto decode = [&](std::size_t steps, const std::string& what) {
    for (std::size_t i = 0; i < steps; ++i) {
      const TokenId tok[] = {next};
      step(tok, what + " decode " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  };
  auto mirror_complete = [&] {
    for (std::size_t layer = 0; layer < cache.n_layers(); ++layer) {
      if (cache.k_mirror_len(layer) != cache.seq_len()) {
        return false;
      }
    }
    return true;
  };

  step(MakeTokens(24, 40, config.vocab_size), "prefill");
  ASSERT_TRUE(mirror_complete());
  decode(5, "turn 1");
  step(MakeTokens(6, 41, config.vocab_size), "second prompt on a warm cache");
  decode(3, "turn 2");
  ASSERT_FALSE(HasFatalFailure());

  cache.TruncateFront(9);
  ref.TruncateFront(9);
  EXPECT_EQ(cache.k_mirror_len(0), 0U) << "TruncateFront must invalidate the mirror";
  decode(4, "after TruncateFront");
  ASSERT_FALSE(HasFatalFailure());

  const std::vector<std::size_t> discard = {0, 3, 4, 11};
  cache.DiscardTokens(discard);
  ref.DiscardTokens(discard);
  EXPECT_EQ(cache.k_mirror_len(0), 0U) << "DiscardTokens must invalidate the mirror";
  decode(3, "after DiscardTokens");
  ASSERT_FALSE(HasFatalFailure());

  cache.MutableK(2, 5)[1] = 0.5f;
  ref.MutableK(2, 5)[1] = 0.5f;
  EXPECT_LE(cache.k_mirror_len(2), 5U) << "MutableK must invalidate the rewritten row";
  EXPECT_EQ(cache.k_mirror_len(1), cache.seq_len()) << "other layers keep their mirror";
  decode(3, "after MutableK");
  ASSERT_FALSE(HasFatalFailure());

  cache = cache.Clone();
  ref = ref.Clone();
  ASSERT_TRUE(mirror_complete()) << "Clone keeps the mirror";
  decode(3, "on a clone");
  ASSERT_FALSE(HasFatalFailure());

  // A mirror-bearing cache and a mirror-less one carry the same bytes.
  const std::vector<std::uint8_t> bytes = cache.SerializeTokenMajor();
  KvCache::TokenMajorDeserializer deserializer(config, mode, cache.seq_len());
  deserializer.Consume(bytes);
  auto restored = deserializer.Finish();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->k_mirror_len(0), 0U);
  EXPECT_EQ(restored->SerializeTokenMajor(), bytes);
  EXPECT_EQ(restored->byte_size(), cache.byte_size());
  cache = std::move(*restored);
  decode(4, "after Serialize/Deserialize");
  ASSERT_FALSE(HasFatalFailure());

  cache.Clear();
  ref.Clear();
  step(MakeTokens(10, 42, config.vocab_size), "prefill after Clear");
  decode(2, "after Clear");
  EXPECT_TRUE(mirror_complete());
}

INSTANTIATE_TEST_SUITE_P(
    PeModesShapesThreadsObserver, ForwardOracle,
    ::testing::Combine(::testing::Values(PeMode::kDecoupled, PeMode::kCoupled),
                       ::testing::Bool(), ::testing::Values(1UL, 4UL), ::testing::Bool()));

// The mirror grows with the cache (Reserve), not to the context window.
TEST(TransformerTest, KMirrorStrideFollowsTheCacheNotTheWindow) {
  const Transformer model(ModelConfig::MiniLong(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  (void)model.Forward(MakeTokens(20, 6, model.config().vocab_size), cache);
  EXPECT_GE(cache.k_mirror_stride(), 20U);
  EXPECT_LT(cache.k_mirror_stride(), model.config().context_window);
  for (std::size_t i = 0; i < 30; ++i) {
    const TokenId tok[] = {static_cast<TokenId>(i)};
    (void)model.Forward(tok, cache);
  }
  EXPECT_GE(cache.k_mirror_stride(), cache.seq_len());
  EXPECT_LE(cache.k_mirror_stride(), 2 * cache.seq_len());
}

TEST(TransformerTest, GqaAndMhaConfigsRun) {
  for (const ModelConfig& config : {ModelConfig::Mini(), ModelConfig::MiniGqa1()}) {
    const Transformer model(config, 3);
    KvCache cache = model.MakeCache(PeMode::kDecoupled);
    const auto tokens = MakeTokens(6, 9, config.vocab_size);
    const Tensor logits = model.Forward(tokens, cache);
    EXPECT_EQ(logits.dim(0), 6U);
  }
}

TEST(TransformerTest, GenerateProducesRequestedTokens) {
  const Transformer model(ModelConfig::Tiny(), 17);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto prompt = MakeTokens(4, 10, model.config().vocab_size);
  const auto reply = model.Generate(prompt, 10, cache);
  EXPECT_EQ(reply.size(), 10U);
  for (const TokenId t : reply) {
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), model.config().vocab_size);
  }
}

TEST(TransformerTest, GenerateIsDeterministic) {
  const Transformer model(ModelConfig::Tiny(), 17);
  KvCache c1 = model.MakeCache(PeMode::kDecoupled);
  KvCache c2 = model.MakeCache(PeMode::kDecoupled);
  const auto prompt = MakeTokens(4, 10, model.config().vocab_size);
  EXPECT_EQ(model.Generate(prompt, 8, c1), model.Generate(prompt, 8, c2));
}

TEST(TransformerDeathTest, ContextOverflowAborts) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens =
      MakeTokens(model.config().context_window + 1, 2, model.config().vocab_size);
  EXPECT_DEATH((void)model.Forward(tokens, cache), "context overflow");
}

TEST(TransformerDeathTest, BadTokenAborts) {
  const Transformer model(ModelConfig::Tiny(), 1);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const std::vector<TokenId> bad = {static_cast<TokenId>(model.config().vocab_size)};
  EXPECT_DEATH((void)model.Forward(bad, cache), "CA_CHECK failed");
}

TEST(SamplerTest, ZeroTemperatureIsArgmax) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(0.0f, 0, 1);
  EXPECT_EQ(sampler.Sample(logits, 2), model.Argmax(logits, 2));
}

TEST(SamplerTest, TopOneEqualsArgmax) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(1.0f, 1, 7);
  EXPECT_EQ(sampler.Sample(logits, 0), model.Argmax(logits, 0));
}

TEST(SamplerTest, SamplesWithinVocab) {
  const Transformer model(ModelConfig::Tiny(), 5);
  KvCache cache = model.MakeCache(PeMode::kDecoupled);
  const auto tokens = MakeTokens(3, 1, model.config().vocab_size);
  const Tensor logits = model.Forward(tokens, cache);
  Sampler sampler(1.2f, 16, 7);
  for (int i = 0; i < 50; ++i) {
    const TokenId t = sampler.Sample(logits, 1);
    EXPECT_GE(t, 0);
    EXPECT_LT(static_cast<std::size_t>(t), model.config().vocab_size);
  }
}

TEST(TokenizerTest, RoundTrip) {
  const ByteTokenizer tok;
  const std::string text = "Hello, CachedAttention! \xc3\xa9";
  const auto ids = tok.Encode(text);
  EXPECT_EQ(ids.size(), text.size());
  EXPECT_EQ(tok.Decode(ids), text);
}

TEST(ConfigTest, KvBytesFormula) {
  const ModelConfig c = ModelConfig::Mini();
  // 2 tensors * layers * kv_dim * 4 bytes.
  EXPECT_EQ(c.kv_bytes_per_token(), 2ULL * c.n_layers * c.kv_dim() * 4);
}

TEST(ConfigTest, PaperDescriptorsMatchPublishedKvSizes) {
  // §4.2: 2.5 MB (65B), 0.78 MB (13B), 0.31 MB (70B), 0.12 MB (Falcon-40B).
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama65B().kv_bytes_per_token) / 1048576.0,
              2.5, 0.05);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama13B().kv_bytes_per_token) / 1048576.0,
              0.78, 0.01);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Llama70B().kv_bytes_per_token) / 1048576.0,
              0.31, 0.01);
  EXPECT_NEAR(static_cast<double>(ModelDescriptor::Falcon40B().kv_bytes_per_token) / 1048576.0,
              0.12, 0.01);
}

TEST(ConfigDeathTest, InvalidConfigsAbort) {
  ModelConfig c = ModelConfig::Mini();
  c.n_kv_heads = 3;  // does not divide 8 heads
  EXPECT_DEATH(c.Validate(), "GQA");
  ModelConfig d = ModelConfig::Mini();
  d.d_model = 130;  // not divisible by heads
  EXPECT_DEATH(d.Validate(), "CA_CHECK failed");
}

}  // namespace
}  // namespace ca
