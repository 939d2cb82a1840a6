// Exact-order attention kernels over the KV cache's layouts.
//
// Each kernel performs, per output element, the same floating-point
// operations in the same order as the scalar reference loop it replaces,
// so its results are bitwise-identical to that loop on every machine
// (DESIGN.md §9):
//  * scores — DotUnchecked's four strided accumulators over the head
//    dimension, combined as (a0 + a1) + (a2 + a3), then times `scale`;
//  * values — AxpyUnchecked's out[i] += p[j] * v[j][i], j ascending.
// The AVX2 variants run eight positions (scores) or eight output dims
// (values) per vector lane; each lane multiplies and then adds, as the
// scalar code does (no FMA). They are selected once by CPU feature.
#ifndef CA_MODEL_ATTENTION_KERNELS_H_
#define CA_MODEL_ATTENTION_KERNELS_H_

#include <cstddef>

namespace ca {

// scores[j] = dot(q, K[:, j]) * scale for j in [0, n), where K is one KV
// head of the cache's dimension-major K mirror: K[i][j] = k[i * stride + j]
// for i in [0, head_dim).
void AttentionScores(const float* q, const float* k, std::size_t stride, std::size_t head_dim,
                     std::size_t n, float scale, float* scores);

// out[i] = sum over j in [0, n), ascending, of p[j] * v[j * v_stride + i],
// for i in [0, head_dim), starting from 0. `v` points at one KV head of the
// cache's token-major V rows.
void AttentionValues(const float* p, const float* v, std::size_t v_stride, std::size_t head_dim,
                     std::size_t n, float* out);

}  // namespace ca

#endif  // CA_MODEL_ATTENTION_KERNELS_H_
