#include "src/common/hash.h"

#include <algorithm>
#include <cstring>

namespace ca {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
// Lane seed spreader (golden-ratio odd constant) so permuting lane contents
// changes the digest even for symmetric inputs.
constexpr std::uint64_t kLaneSeed = 0x9E3779B97F4A7C15ULL;

inline std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Fold `n_groups` 64-byte groups at `p` into the 8 lanes. The eight
// xor-multiply chains are independent, so the compiler keeps all
// accumulators in registers and the 3-cycle multiplies pipeline across
// lanes instead of serializing like byte-wise FNV-1a.
void FoldGroups(const std::uint8_t* p, std::size_t n_groups, std::uint64_t* lanes) {
  std::uint64_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2], l3 = lanes[3];
  std::uint64_t l4 = lanes[4], l5 = lanes[5], l6 = lanes[6], l7 = lanes[7];
  for (std::size_t g = 0; g < n_groups; ++g, p += ChunkedHash64::kGroupBytes) {
    l0 = (l0 ^ LoadU64(p + 0)) * kFnvPrime;
    l1 = (l1 ^ LoadU64(p + 8)) * kFnvPrime;
    l2 = (l2 ^ LoadU64(p + 16)) * kFnvPrime;
    l3 = (l3 ^ LoadU64(p + 24)) * kFnvPrime;
    l4 = (l4 ^ LoadU64(p + 32)) * kFnvPrime;
    l5 = (l5 ^ LoadU64(p + 40)) * kFnvPrime;
    l6 = (l6 ^ LoadU64(p + 48)) * kFnvPrime;
    l7 = (l7 ^ LoadU64(p + 56)) * kFnvPrime;
  }
  lanes[0] = l0;
  lanes[1] = l1;
  lanes[2] = l2;
  lanes[3] = l3;
  lanes[4] = l4;
  lanes[5] = l5;
  lanes[6] = l6;
  lanes[7] = l7;
}

}  // namespace

void ChunkedHash64::Reset() {
  for (std::size_t i = 0; i < kLanes; ++i) {
    lanes_[i] = kFnvBasis ^ (kLaneSeed * (i + 1));
  }
  pending_len_ = 0;
  total_len_ = 0;
}

void ChunkedHash64::Update(std::span<const std::uint8_t> chunk) {
  total_len_ += chunk.size();
  const std::uint8_t* p = chunk.data();
  std::size_t n = chunk.size();
  if (pending_len_ > 0) {
    const std::size_t take = std::min(n, kGroupBytes - pending_len_);
    std::memcpy(pending_.data() + pending_len_, p, take);
    pending_len_ += take;
    p += take;
    n -= take;
    if (pending_len_ < kGroupBytes) {
      return;
    }
    FoldGroups(pending_.data(), 1, lanes_.data());
    pending_len_ = 0;
  }
  const std::size_t groups = n / kGroupBytes;
  if (groups > 0) {
    FoldGroups(p, groups, lanes_.data());
    p += groups * kGroupBytes;
    n -= groups * kGroupBytes;
  }
  if (n > 0) {
    std::memcpy(pending_.data(), p, n);
    pending_len_ = n;
  }
}

std::uint64_t ChunkedHash64::Finalize() const {
  // Fold the lanes, then the (< kGroupBytes) tail byte-serially, then the
  // total length, so "same bytes, different split" collides but "same bytes
  // plus trailing zeros" does not.
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t lane : lanes_) {
    h = (h ^ lane) * kFnvPrime;
  }
  std::uint64_t tail = kFnvBasis;
  for (std::size_t i = 0; i < pending_len_; ++i) {
    tail = (tail ^ pending_[i]) * kFnvPrime;
  }
  h = (h ^ tail) * kFnvPrime;
  h = (h ^ total_len_) * kFnvPrime;
  // Final avalanche: FNV's last multiply barely stirs the high bits.
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

std::uint64_t Checksum64(std::span<const std::uint8_t> bytes) {
  ChunkedHash64 hash;
  hash.Update(bytes);
  return hash.Finalize();
}

}  // namespace ca
