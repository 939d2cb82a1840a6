// Rotary positional embedding (RoPE, Su et al.), the relative positional
// encoding used by LLaMA/Mistral/Falcon. CachedAttention's decoupled-PE
// scheme (§3.4) relies on applying RoPE *after* loading cached K vectors, at
// their current (possibly shifted) positions.
#ifndef CA_MODEL_ROPE_H_
#define CA_MODEL_ROPE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ca {

// Rotation table for one head: cos/sin of pos * inv_freq[i] for every
// position in [0, max_positions), computed once at construction. Every
// rotation reads the table; a position outside it is a CA_CHECK failure
// (the model's positions never reach its context window).
class RopeTable {
 public:
  RopeTable(std::size_t head_dim, float theta, std::size_t max_positions);

  std::size_t head_dim() const { return head_dim_; }
  std::size_t max_positions() const { return max_positions_; }

  // Rotates `vec` (one head, length head_dim) in place to encode position
  // `pos`. Pairs (2i, 2i+1) are rotated by pos * inv_freq[i].
  void Apply(std::span<float> vec, std::size_t pos) const;

  // Rotates every head of a packed multi-head vector (length
  // n_heads*head_dim) in place at position `pos`.
  void ApplyAllHeads(std::span<float> packed, std::size_t pos) const;

  // Apply's rotation of one head `src` (head_dim floats), written to
  // dst[i * dst_stride] for i in [0, head_dim). dst may equal src with
  // stride 1 (that is Apply). The KV cache uses it to scatter a rotated K
  // row into its dimension-major mirror.
  void RotateInto(const float* src, std::size_t pos, float* dst, std::size_t dst_stride) const;

  // Inverse rotation (used by the trainer's backward pass and by tests).
  void ApplyInverse(std::span<float> vec, std::size_t pos) const;

 private:
  // cos/sin pairs of position `pos`: entry 2i is cos, 2i+1 is sin of
  // pos * inv_freq[i].
  const float* Row(std::size_t pos) const;

  std::size_t head_dim_;
  std::size_t max_positions_;
  std::vector<float> cos_sin_;  // [max_positions, head_dim]
};

}  // namespace ca

#endif  // CA_MODEL_ROPE_H_
