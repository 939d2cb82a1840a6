// KV cache for the executable mini-transformer.
//
// Layout: per transformer layer, two contiguous fp32 arrays K and V of shape
// [seq_len, kv_dim]. The positional-encoding mode decides what K rows hold:
//  * PeMode::kDecoupled (CachedAttention) — K is stored pre-RoPE. Positions
//    are re-embedded into the K mirror (below) once per loaded cache, so
//    TruncateFront keeps the cache valid (§3.4).
//  * PeMode::kCoupled (conventional) — K is stored post-RoPE at the position
//    each token had when it was computed. TruncateFront on such a cache
//    produces the paper's NKVT corruption.
//
// Next to the cached K the cache keeps a position-encoded K mirror, the
// layout the attention kernels read: per layer, per KV head,
// dimension-major ([kv_head][dim][pos], row stride k_mirror_stride()).
// The forward pass extends it for the rows it has not seen yet
// (SyncKMirror); anything that shifts or rewrites K rows invalidates it. The
// mirror is derived state: it is not serialised, not counted in byte_size()
// and a freshly deserialised cache starts without one.
//
// The cache has one wire form, token-major and headerless (below), so
// AttentionStore can move it across memory/disk tiers and split it into
// shared token chunks without knowing the tensor layout.
#ifndef CA_MODEL_KV_CACHE_H_
#define CA_MODEL_KV_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/model/config.h"
#include "src/model/rope.h"

namespace ca {

class KvCache {
 public:
  KvCache(const ModelConfig& config, PeMode pe_mode);

  PeMode pe_mode() const { return pe_mode_; }
  std::size_t n_layers() const { return k_.size(); }
  std::size_t kv_dim() const { return kv_dim_; }

  // Number of cached tokens (uniform across layers once a forward pass
  // completes).
  std::size_t seq_len() const;
  // Tokens appended so far to a specific layer (mid-forward they differ).
  std::size_t layer_len(std::size_t layer) const;

  bool empty() const { return seq_len() == 0; }

  // Appends one token's K and V rows (each kv_dim floats) to `layer`.
  void Append(std::size_t layer, std::span<const float> k, std::span<const float> v);

  // Grows every layer's storage to hold at least `total_tokens` tokens
  // (no-op if it already does). Called by the forward pass with history +
  // new so a prefill appends into storage grown once up front instead of
  // paying vector regrowth copies mid-pass; also keeps LayerK/LayerV spans
  // stable across the Appends of one forward. K, V and the K mirror's row
  // stride share one geometric rule, max(need, min(2 x capacity, window)),
  // so a run of decode steps neither copies the tensors nor re-lays the
  // mirror out on every token.
  void Reserve(std::size_t total_tokens);

  // Row accessors.
  std::span<const float> K(std::size_t layer, std::size_t token) const;
  std::span<const float> V(std::size_t layer, std::size_t token) const;
  // Invalidates the K mirror of `layer` from `token` on.
  std::span<float> MutableK(std::size_t layer, std::size_t token);

  // Whole-layer accessors (LayerV feeds the attention value kernel; scores
  // read the K mirror below): token t's row occupies
  // [t * kv_dim(), (t + 1) * kv_dim()). Bounds-checked once per layer
  // instead of once per (token, head) like K()/V().
  std::span<const float> LayerK(std::size_t layer) const;
  std::span<const float> LayerV(std::size_t layer) const;

  // Position-encoded K of one layer, dimension-major: element (kv head g,
  // dim i, token t) is data[(g * head_dim + i) * stride + t].
  struct KMirror {
    const float* data;
    std::size_t stride;
  };

  // Brings layer's K mirror up to layer_len(layer) and returns it. Only the
  // rows [k_mirror_len(layer), layer_len(layer)) are encoded: kDecoupled
  // rotates each raw row to its current index with `rope` (the §3.4
  // re-embedding, paid once per loaded cache instead of once per forward),
  // kCoupled copies the already rotated row. Rows are encoded in parallel
  // on `pool` (nullptr = serial); the result does not depend on it.
  KMirror SyncKMirror(std::size_t layer, const RopeTable& rope, ThreadPool* pool);

  // Rows of `layer` the K mirror currently holds (tests).
  std::size_t k_mirror_len(std::size_t layer) const;
  // Row stride (in tokens) of every layer's K mirror.
  std::size_t k_mirror_stride() const { return mirror_stride_; }

  // Drops the oldest `n_tokens` tokens from every layer. With kDecoupled
  // this is the paper's KV cache truncation; with kCoupled it deliberately
  // reproduces NKVT's positional corruption (kept for the baseline).
  // Invalidates the K mirror: every surviving row moves to a new index.
  void TruncateFront(std::size_t n_tokens);

  // Keeps only tokens whose index is NOT in `discard` (token-discarding-list
  // support for KV compression schemes, §3.4). Indices refer to current
  // positions; out-of-range entries are ignored. Invalidates the K mirror.
  void DiscardTokens(std::span<const std::size_t> discard);

  // Removes all cached tokens (and the K mirror's rows; its storage stays).
  void Clear();

  // fp32 byte footprint of the cached tensors (excludes the K mirror); equals
  // the wire size.
  std::uint64_t byte_size() const;

  KvCache Clone() const;

  // --- wire form (DESIGN.md §14, §17) ----------------------------------
  //
  // Headerless and token-major: for token t, for layer l: the K row then the
  // V row (kv_dim floats each). Byte offset t * token_major_bytes_per_token()
  // is therefore a token boundary, which is what lets the store split a
  // payload into fixed token-count chunks and dedup them across sessions.
  // Shape (pe_mode, n_layers, kv_dim, seq_len) travels out of band: the
  // record's token count and the engine's model, checked against the
  // engine's durable history blob on restart.

  // Bytes one token occupies in the token-major form (2 rows per layer).
  static std::uint64_t TokenMajorBytesPerToken(const ModelConfig& config) {
    return static_cast<std::uint64_t>(2 * config.n_layers * config.kv_dim()) * sizeof(float);
  }
  std::uint64_t token_major_bytes_per_token() const {
    return static_cast<std::uint64_t>(2 * k_.size() * kv_dim_) * sizeof(float);
  }

  // Restartable cursor over the token-major bytes of tokens
  // [token_begin, token_end). Fill() copies straight out of the cache's
  // tensors, so the engine's save path hands it to the store and the KV
  // bytes land directly in tier block memory — no staging vector. The cache
  // must stay alive and unmodified while the cursor reads it.
  class TokenMajorSerializer {
   public:
    TokenMajorSerializer(const KvCache& cache, std::size_t token_begin, std::size_t token_end);

    std::uint64_t size() const { return total_; }
    void Reset() {
      token_ = begin_;
      row_ = 0;
      row_off_ = 0;
    }
    // Produces the next dest.size() bytes of the token-major form.
    void Fill(std::span<std::uint8_t> dest);

   private:
    const KvCache* cache_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::uint64_t total_ = 0;
    std::size_t token_ = 0;
    std::size_t row_ = 0;      // in [0, 2 * n_layers): K row, V row per layer
    std::size_t row_off_ = 0;  // bytes already emitted of the current row
  };

  // Materialised token-major form of the whole cache (async save path).
  std::vector<std::uint8_t> SerializeTokenMajor() const;

  // Streaming inverse of the token-major form. seq_len arrives out of band
  // (the store's record token count). Chunks arrive in byte order (any
  // chunking) via Consume and are copied straight into the final tensor
  // storage; Finish() validates the byte count and yields the cache. Errors
  // (seq_len past the context window, over/undershoot) are remembered;
  // later chunks are swallowed and Finish() reports the first failure.
  // Reset() restarts a fresh pass (the store's read-retry loop replays the
  // stream). Holds its config by value: it may outlive the caller's.
  class TokenMajorDeserializer {
   public:
    TokenMajorDeserializer(ModelConfig config, PeMode pe_mode, std::size_t seq_len);

    void Reset();
    void Consume(std::span<const std::uint8_t> chunk);
    // Consumes the built cache; the deserializer is spent afterwards
    // (Reset() before reuse).
    Result<KvCache> Finish();

   private:
    ModelConfig config_;
    PeMode pe_mode_;
    std::size_t seq_len_ = 0;
    // unique_ptr, not optional: KvCache is still incomplete inside its own
    // nested class, and optional needs the complete type.
    std::unique_ptr<KvCache> cache_;
    Status error_ = Status::Ok();
    std::uint64_t expected_total_ = 0;
    std::uint64_t consumed_ = 0;
    std::size_t token_ = 0;
    std::size_t row_ = 0;
    std::size_t row_off_ = 0;
  };

 private:
  // Grows one layer's K or V storage to hold at least `tokens` rows.
  void GrowRows(std::vector<float>& rows, std::size_t tokens) const;
  // Grows every allocated mirror's row stride to at least `tokens`,
  // keeping the rows it holds.
  void GrowKMirror(std::size_t tokens);
  void InvalidateKMirror();

  PeMode pe_mode_;
  std::size_t kv_dim_;
  std::size_t head_dim_;
  std::size_t context_window_;
  // Indexed [layer]; each holds layer_len * kv_dim floats.
  std::vector<std::vector<float>> k_;
  std::vector<std::vector<float>> v_;
  // Indexed [layer]; each holds kv_dim * mirror_stride_ floats once the
  // layer's mirror is first synced (empty before). mirror_len_[layer] rows
  // of it are valid.
  std::vector<std::vector<float>> k_mirror_;
  std::vector<std::size_t> mirror_len_;
  std::size_t mirror_stride_ = 0;
};

}  // namespace ca

#endif  // CA_MODEL_KV_CACHE_H_
