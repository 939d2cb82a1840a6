#include "src/model/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/parallel_for.h"

namespace ca {

namespace {

constexpr std::uint32_t kMagic = 0x43414b56;  // "CAKV"

struct SerializedHeader {
  std::uint32_t magic;
  std::uint32_t pe_mode;
  std::uint32_t n_layers;
  std::uint32_t kv_dim;
  std::uint64_t seq_len;
};

static_assert(sizeof(SerializedHeader) == KvCache::kSerializedHeaderBytes,
              "wire header size drifted from KvCache::kSerializedHeaderBytes");

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

namespace {

// Appends one row with explicitly geometric capacity growth. libstdc++
// already doubles on insert, but the 2x policy is a guarantee we rely on
// (prefill must not be O(n^2) reallocation), not an implementation detail
// to inherit silently.
void AppendRow(std::vector<float>& dst, std::span<const float> row) {
  if (dst.size() + row.size() > dst.capacity()) {
    dst.reserve(std::max(dst.size() + row.size(), 2 * dst.capacity()));
  }
  dst.insert(dst.end(), row.begin(), row.end());
}

}  // namespace

void KvCache::Append(std::size_t layer, std::span<const float> k, std::span<const float> v) {
  CA_CHECK_LT(layer, k_.size());
  CA_CHECK_EQ(k.size(), kv_dim_);
  CA_CHECK_EQ(v.size(), kv_dim_);
  AppendRow(k_[layer], k);
  AppendRow(v_[layer], v);
}

void KvCache::Reserve(std::size_t total_tokens) {
  const std::size_t floats = total_tokens * kv_dim_;
  for (std::size_t layer = 0; layer < k_.size(); ++layer) {
    if (k_[layer].capacity() < floats) {
      k_[layer].reserve(floats);
    }
    if (v_[layer].capacity() < floats) {
      v_[layer].reserve(floats);
    }
  }
  GrowKMirror(total_tokens);
}

void KvCache::GrowKMirror(std::size_t tokens) {
  if (tokens <= mirror_stride_) {
    return;
  }
  const std::size_t stride = std::max(tokens, std::min(2 * mirror_stride_, context_window_));
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

KvCache::Serializer::Serializer(const KvCache& cache) {
  const std::size_t len = cache.seq_len();
  for (std::size_t layer = 0; layer < cache.k_.size(); ++layer) {
    CA_CHECK_EQ(cache.layer_len(layer), len) << "Serialize mid-forward";
  }
  const SerializedHeader header{
      .magic = kMagic,
      .pe_mode = static_cast<std::uint32_t>(cache.pe_mode_),
      .n_layers = static_cast<std::uint32_t>(cache.k_.size()),
      .kv_dim = static_cast<std::uint32_t>(cache.kv_dim_),
      .seq_len = len,
  };
  std::memcpy(header_.data(), &header, sizeof(header));
  segments_.reserve(1 + 2 * cache.k_.size());
  segments_.push_back(Segment{.data = header_.data(), .len = header_.size()});
  total_ = header_.size();
  for (std::size_t layer = 0; layer < cache.k_.size(); ++layer) {
    // Empty layers have a null data(); skip them so Fill never touches a
    // null segment pointer.
    if (const std::size_t k_bytes = cache.k_[layer].size() * sizeof(float); k_bytes > 0) {
      segments_.push_back(Segment{
          .data = reinterpret_cast<const std::uint8_t*>(cache.k_[layer].data()), .len = k_bytes});
      total_ += k_bytes;
    }
    if (const std::size_t v_bytes = cache.v_[layer].size() * sizeof(float); v_bytes > 0) {
      segments_.push_back(Segment{
          .data = reinterpret_cast<const std::uint8_t*>(cache.v_[layer].data()), .len = v_bytes});
      total_ += v_bytes;
    }
  }
  CA_CHECK_EQ(total_, cache.SerializedSize());
}

void KvCache::Serializer::Fill(std::span<std::uint8_t> dest) {
  std::size_t off = 0;
  while (off < dest.size()) {
    CA_CHECK_LT(seg_, segments_.size()) << "Fill past the serialized payload";
    const Segment& s = segments_[seg_];
    if (seg_off_ == s.len) {
      ++seg_;
      seg_off_ = 0;
      continue;
    }
    const std::size_t take = std::min(dest.size() - off, s.len - seg_off_);
    std::memcpy(dest.data() + off, s.data + seg_off_, take);
    off += take;
    seg_off_ += take;
  }
}

void KvCache::SerializeInto(std::span<std::uint8_t> out) const {
  Serializer cursor(*this);
  CA_CHECK_EQ(out.size(), cursor.size()) << "SerializeInto buffer size mismatch";
  cursor.Fill(out);
}

std::vector<std::uint8_t> KvCache::Serialize() const {
  std::vector<std::uint8_t> out(SerializedSize());
  SerializeInto(out);
  return out;
}

void KvCache::StreamingDeserializer::Reset() {
  header_have_ = 0;
  cache_.reset();
  error_ = Status::Ok();
  segments_.clear();
  seg_ = 0;
  seg_off_ = 0;
  expected_total_ = 0;
  consumed_ = 0;
}

void KvCache::StreamingDeserializer::ParseHeader() {
  SerializedHeader header;
  std::memcpy(&header, header_.data(), sizeof(header));
  if (header.magic != kMagic) {
    error_ = InvalidArgumentError("bad KV cache magic");
    return;
  }
  if (header.n_layers != config_->n_layers || header.kv_dim != config_->kv_dim()) {
    error_ = InvalidArgumentError("KV cache shape does not match model config");
    return;
  }
  // A cache can never legitimately exceed the model's context window; a
  // garbage length must not drive the tensor allocation below. (Reachable
  // only with checksum verification disabled — a verified stream never
  // presents a damaged header.)
  if (header.seq_len > config_->context_window) {
    error_ = InvalidArgumentError("KV cache seq_len exceeds the context window");
    return;
  }
  expected_total_ =
      sizeof(header) + 2ULL * header.n_layers * header.seq_len * header.kv_dim * sizeof(float);
  cache_ = std::make_unique<KvCache>(*config_, static_cast<PeMode>(header.pe_mode));
  const std::size_t layer_floats = header.seq_len * header.kv_dim;
  if (layer_floats == 0) {
    return;
  }
  segments_.reserve(2ULL * header.n_layers);
  for (std::size_t layer = 0; layer < header.n_layers; ++layer) {
    cache_->k_[layer].resize(layer_floats);
    segments_.push_back(Segment{.data = reinterpret_cast<std::uint8_t*>(cache_->k_[layer].data()),
                                .len = layer_floats * sizeof(float)});
    cache_->v_[layer].resize(layer_floats);
    segments_.push_back(Segment{.data = reinterpret_cast<std::uint8_t*>(cache_->v_[layer].data()),
                                .len = layer_floats * sizeof(float)});
  }
}

void KvCache::StreamingDeserializer::Consume(std::span<const std::uint8_t> chunk) {
  consumed_ += chunk.size();
  if (!error_.ok()) {
    return;  // swallow the rest; Finish() reports the first failure
  }
  while (!chunk.empty()) {
    if (header_have_ < kSerializedHeaderBytes) {
      const std::size_t take = std::min(chunk.size(), kSerializedHeaderBytes - header_have_);
      std::memcpy(header_.data() + header_have_, chunk.data(), take);
      header_have_ += take;
      chunk = chunk.subspan(take);
      if (header_have_ == kSerializedHeaderBytes) {
        ParseHeader();
        if (!error_.ok()) {
          return;
        }
      }
      continue;
    }
    if (seg_ >= segments_.size()) {
      error_ = InvalidArgumentError("KV cache buffer size mismatch");
      return;
    }
    Segment& s = segments_[seg_];
    if (seg_off_ == s.len) {
      ++seg_;
      seg_off_ = 0;
      continue;
    }
    const std::size_t take = std::min(chunk.size(), s.len - seg_off_);
    std::memcpy(s.data + seg_off_, chunk.data(), take);
    seg_off_ += take;
    chunk = chunk.subspan(take);
  }
}

Result<KvCache> KvCache::StreamingDeserializer::Finish() {
  if (!error_.ok()) {
    return error_;
  }
  if (header_have_ < kSerializedHeaderBytes) {
    return InvalidArgumentError("KV cache buffer shorter than header");
  }
  if (consumed_ != expected_total_) {
    return InvalidArgumentError("KV cache buffer size mismatch");
  }
  CA_CHECK(cache_ != nullptr);
  KvCache out = std::move(*cache_);
  cache_.reset();
  return out;
}

Result<KvCache> KvCache::Deserialize(const ModelConfig& config,
                                     std::span<const std::uint8_t> bytes) {
  StreamingDeserializer cursor(config);
  cursor.Consume(bytes);
  return cursor.Finish();
}

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

KvCache::TokenMajorDeserializer::TokenMajorDeserializer(const ModelConfig& config, PeMode pe_mode,
                                                        std::size_t seq_len)
    : config_(&config), pe_mode_(pe_mode), seq_len_(seq_len) {
  Reset();
}

void KvCache::TokenMajorDeserializer::Reset() {
  error_ = Status::Ok();
  consumed_ = 0;
  token_ = 0;
  row_ = 0;
  row_off_ = 0;
  if (seq_len_ > config_->context_window) {
    // Same guard as ParseHeader: a garbage token count must not drive the
    // tensor allocation.
    error_ = InvalidArgumentError("KV cache seq_len exceeds the context window");
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<KvCache>(*config_, pe_mode_);
  expected_total_ = static_cast<std::uint64_t>(seq_len_) * cache_->token_major_bytes_per_token();
  const std::size_t layer_floats = seq_len_ * config_->kv_dim();
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
  const std::size_t row_bytes = config_->kv_dim() * sizeof(float);
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
