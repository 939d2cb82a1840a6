#include "src/model/kv_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/parallel_for.h"

namespace ca {

namespace {

// The one growth rule for K, V and the K mirror's row stride, in tokens:
// at least `need`, otherwise double the current capacity, capped at the
// context window (a cache never holds more). Geometric, so prefill and
// decode are amortised O(1) copies per appended token.
std::size_t GrownCapacity(std::size_t need, std::size_t capacity, std::size_t window) {
  return std::max(need, std::min(2 * capacity, window));
}

}  // namespace

KvCache::KvCache(const ModelConfig& config, PeMode pe_mode)
    : pe_mode_(pe_mode),
      kv_dim_(config.kv_dim()),
      head_dim_(config.head_dim()),
      context_window_(config.context_window),
      k_(config.n_layers),
      v_(config.n_layers),
      k_mirror_(config.n_layers),
      mirror_len_(config.n_layers, 0) {
  config.Validate();
}

std::size_t KvCache::seq_len() const {
  if (k_.empty()) {
    return 0;
  }
  return k_[0].size() / kv_dim_;
}

std::size_t KvCache::layer_len(std::size_t layer) const {
  CA_CHECK_LT(layer, k_.size());
  return k_[layer].size() / kv_dim_;
}

void KvCache::GrowRows(std::vector<float>& rows, std::size_t tokens) const {
  const std::size_t capacity = rows.capacity() / kv_dim_;
  if (tokens > capacity) {
    rows.reserve(GrownCapacity(tokens, capacity, context_window_) * kv_dim_);
  }
}

void KvCache::Append(std::size_t layer, std::span<const float> k, std::span<const float> v) {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_EQ(k.size(), kv_dim_);
  CA_CHECK_EQ(v.size(), kv_dim_);
  const std::size_t tokens = layer_len(layer) + 1;
  GrowRows(k_[layer], tokens);
  GrowRows(v_[layer], tokens);
  k_[layer].insert(k_[layer].end(), k.begin(), k.end());
  v_[layer].insert(v_[layer].end(), v.begin(), v.end());
}

void KvCache::Reserve(std::size_t total_tokens) {
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    GrowRows(k_[layer], total_tokens);
    GrowRows(v_[layer], total_tokens);
  }
  GrowKMirror(total_tokens);
}

void KvCache::GrowKMirror(std::size_t tokens) {
  if (tokens <= mirror_stride_) {
    return;
  }
  const std::size_t stride = GrownCapacity(tokens, mirror_stride_, context_window_);
  for (std::size_t layer = 0; layer < k_mirror_.size(); ++layer) {
    std::vector<float>& mirror = k_mirror_[layer];
    if (mirror.empty()) {
      continue;  // allocated by the layer's first SyncKMirror
    }
    std::vector<float> grown(kv_dim_ * stride);
    const std::size_t rows = mirror_len_[layer];
    for (std::size_t d = 0; d < kv_dim_; ++d) {
      std::memcpy(grown.data() + d * stride, mirror.data() + d * mirror_stride_,
                  rows * sizeof(float));
    }
    mirror = std::move(grown);
  }
  mirror_stride_ = stride;
}

void KvCache::InvalidateKMirror() { std::fill(mirror_len_.begin(), mirror_len_.end(), 0); }

std::size_t KvCache::k_mirror_len(std::size_t layer) const {
  CA_CHECK_LT(layer, mirror_len_.size());
  return mirror_len_[layer];
}

KvCache::KMirror KvCache::SyncKMirror(std::size_t layer, const RopeTable& rope,
                                      ThreadPool* pool) {
  const std::size_t len = layer_len(layer);
  CA_CHECK_LE(mirror_len_[layer], len);
  CA_CHECK_EQ(rope.head_dim(), head_dim_);
  GrowKMirror(len);
  std::vector<float>& mirror = k_mirror_[layer];
  if (mirror.empty()) {
    mirror.resize(kv_dim_ * mirror_stride_);
  }
  const std::size_t stride = mirror_stride_;
  const std::size_t n_kv_heads = kv_dim_ / head_dim_;
  const float* k_rows = k_[layer].data();
  float* out = mirror.data();
  const bool rotate = pe_mode_ == PeMode::kDecoupled;
  ParallelFor(pool, mirror_len_[layer], len, /*grain=*/32,
              [&](std::size_t row_begin, std::size_t row_end) {
                for (std::size_t t = row_begin; t < row_end; ++t) {
                  for (std::size_t g = 0; g < n_kv_heads; ++g) {
                    const float* src = k_rows + t * kv_dim_ + g * head_dim_;
                    float* dst = out + g * head_dim_ * stride + t;
                    if (rotate) {
                      rope.RotateInto(src, t, dst, stride);
                    } else {
                      for (std::size_t i = 0; i < head_dim_; ++i) {
                        dst[i * stride] = src[i];
                      }
                    }
                  }
                }
              });
  mirror_len_[layer] = len;
  return {out, stride};
}

std::span<const float> KvCache::LayerK(std::size_t layer) const {
  CA_CHECK_LT(layer, k_.size());
  return {k_[layer].data(), k_[layer].size()};
}

std::span<const float> KvCache::LayerV(std::size_t layer) const {
  CA_CHECK_LT(layer, v_.size());
  return {v_[layer].data(), v_[layer].size()};
}

std::span<const float> KvCache::K(std::size_t layer, std::size_t token) const {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_LT(token, layer_len(layer));
  return {k_[layer].data() + token * kv_dim_, kv_dim_};
}

std::span<const float> KvCache::V(std::size_t layer, std::size_t token) const {
  CA_CHECK_LT(layer, v_.size());
  CA_CHECK_LT(token, layer_len(layer));
  return {v_[layer].data() + token * kv_dim_, kv_dim_};
}

std::span<float> KvCache::MutableK(std::size_t layer, std::size_t token) {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_LT(token, layer_len(layer));
  mirror_len_[layer] = std::min(mirror_len_[layer], token);
  return {k_[layer].data() + token * kv_dim_, kv_dim_};
}

void KvCache::TruncateFront(std::size_t n_tokens) {
  InvalidateKMirror();
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    const std::size_t len = layer_len(layer);
    const std::size_t drop = std::min(n_tokens, len);
    k_[layer].erase(k_[layer].begin(),
                    k_[layer].begin() + static_cast<std::ptrdiff_t>(drop * kv_dim_));
    v_[layer].erase(v_[layer].begin(),
                    v_[layer].begin() + static_cast<std::ptrdiff_t>(drop * kv_dim_));
  }
}

void KvCache::DiscardTokens(std::span<const std::size_t> discard) {
  if (discard.empty()) {
    return;
  }
  InvalidateKMirror();
  const std::size_t len = seq_len();
  std::vector<bool> keep(len, true);
  for (const std::size_t idx : discard) {
    if (idx < len) {
      keep[idx] = false;
    }
  }
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    CA_CHECK_EQ(layer_len(layer), len) << "DiscardTokens mid-forward";
    std::vector<float> new_k;
    std::vector<float> new_v;
    new_k.reserve(k_[layer].size());
    new_v.reserve(v_[layer].size());
    for (std::size_t t = 0; t < len; ++t) {
      if (!keep[t]) {
        continue;
      }
      const float* kp = k_[layer].data() + t * kv_dim_;
      const float* vp = v_[layer].data() + t * kv_dim_;
      new_k.insert(new_k.end(), kp, kp + kv_dim_);
      new_v.insert(new_v.end(), vp, vp + kv_dim_);
    }
    k_[layer] = std::move(new_k);
    v_[layer] = std::move(new_v);
  }
}

void KvCache::Clear() {
  for (auto& layer : k_) {
    layer.clear();
  }
  for (auto& layer : v_) {
    layer.clear();
  }
  InvalidateKMirror();
}

std::uint64_t KvCache::byte_size() const {
  std::uint64_t bytes = 0;
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    bytes += (k_[layer].size() + v_[layer].size()) * sizeof(float);
  }
  return bytes;
}

KvCache KvCache::Clone() const { return *this; }

KvCache::TokenMajorSerializer::TokenMajorSerializer(const KvCache& cache, std::size_t token_begin,
                                                    std::size_t token_end)
    : cache_(&cache), begin_(token_begin), end_(token_end) {
  const std::size_t len = cache.seq_len();
  for (std::size_t layer = 0; layer < cache.k_.size(); ++layer) {
    CA_CHECK_EQ(cache.layer_len(layer), len) << "Serialize mid-forward";
  }
  CA_CHECK_LE(token_begin, token_end);
  CA_CHECK_LE(token_end, len);
  total_ = static_cast<std::uint64_t>(token_end - token_begin) * cache.token_major_bytes_per_token();
  Reset();
}

void KvCache::TokenMajorSerializer::Fill(std::span<std::uint8_t> dest) {
  const std::size_t row_bytes = cache_->kv_dim_ * sizeof(float);
  const std::size_t rows_per_token = 2 * cache_->k_.size();
  std::size_t off = 0;
  while (off < dest.size()) {
    CA_CHECK_LT(token_, end_) << "Fill past the serialized payload";
    if (row_off_ == row_bytes) {
      row_off_ = 0;
      if (++row_ == rows_per_token) {
        row_ = 0;
        ++token_;
        continue;
      }
    }
    const std::size_t layer = row_ / 2;
    const std::vector<float>& plane = (row_ % 2 == 0) ? cache_->k_[layer] : cache_->v_[layer];
    const auto* row = reinterpret_cast<const std::uint8_t*>(plane.data()) +
                      token_ * row_bytes;
    const std::size_t take = std::min(dest.size() - off, row_bytes - row_off_);
    std::memcpy(dest.data() + off, row + row_off_, take);
    off += take;
    row_off_ += take;
  }
  // Normalise so the past-the-end check above fires only on a true overrun.
  if (row_off_ == row_bytes && row_ + 1 == rows_per_token) {
    row_ = 0;
    row_off_ = 0;
    ++token_;
  }
}

std::vector<std::uint8_t> KvCache::SerializeTokenMajor() const {
  std::vector<std::uint8_t> out(seq_len() * token_major_bytes_per_token());
  TokenMajorSerializer cursor(*this, 0, seq_len());
  cursor.Fill(out);
  return out;
}

KvCache::TokenMajorDeserializer::TokenMajorDeserializer(ModelConfig config, PeMode pe_mode,
                                                        std::size_t seq_len)
    : config_(std::move(config)), pe_mode_(pe_mode), seq_len_(seq_len) {
  Reset();
}

void KvCache::TokenMajorDeserializer::Reset() {
  error_ = Status::Ok();
  consumed_ = 0;
  token_ = 0;
  row_ = 0;
  row_off_ = 0;
  if (seq_len_ > config_.context_window) {
    // A cache can never legitimately exceed the model's context window; a
    // garbage token count must not drive the tensor allocation below.
    error_ = InvalidArgumentError("KV cache seq_len exceeds the context window");
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<KvCache>(config_, pe_mode_);
  expected_total_ = static_cast<std::uint64_t>(seq_len_) * cache_->token_major_bytes_per_token();
  const std::size_t layer_floats = seq_len_ * config_.kv_dim();
  for (std::size_t layer = 0; layer < cache_->k_.size(); ++layer) {
    cache_->k_[layer].resize(layer_floats);
    cache_->v_[layer].resize(layer_floats);
  }
}

void KvCache::TokenMajorDeserializer::Consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();
  if (!error_.ok()) {
    return;  // swallow the rest; Finish() reports the first failure
  }
  const std::size_t row_bytes = config_.kv_dim() * sizeof(float);
  const std::size_t rows_per_token = 2 * cache_->k_.size();
  while (!chunk.empty()) {
    if (token_ >= seq_len_) {
      error_ = InvalidArgumentError("KV cache buffer size mismatch");
      return;
    }
    if (row_off_ == row_bytes) {
      row_off_ = 0;
      if (++row_ == rows_per_token) {
        row_ = 0;
        ++token_;
        continue;
      }
    }
    const std::size_t layer = row_ / 2;
    std::vector<float>& plane = (row_ % 2 == 0) ? cache_->k_[layer] : cache_->v_[layer];
    auto* row = reinterpret_cast<std::uint8_t*>(plane.data()) + token_ * row_bytes;
    const std::size_t take = std::min(chunk.size(), row_bytes - row_off_);
    std::memcpy(row + row_off_, chunk.data(), take);
    row_off_ += take;
    chunk = chunk.subspan(take);
  }
}

Result<KvCache> KvCache::TokenMajorDeserializer::Finish() {
  if (!error_.ok()) {
    return error_;
  }
  if (consumed_ != expected_total_) {
    return InvalidArgumentError("KV cache buffer size mismatch");
  }
  CA_CHECK(cache_ != nullptr);
  KvCache out = std::move(*cache_);
  cache_.reset();
  return out;
}

}  // namespace ca
