#include "src/model/attention_kernels.h"

#include <algorithm>

// The AVX2 variants are compiled with target("avx2") only, never "fma": with
// FMA enabled the compiler may fuse a _mm256_mul_ps/_mm256_add_ps pair into
// one rounding, which the scalar reference does not do.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CA_ATTENTION_X86 1
#include <immintrin.h>
#endif

namespace ca {

namespace {

// Positions per block of the scalar scores loop (and lanes per AVX2 block).
constexpr std::size_t kBlock = 8;

// Exact-order scalar scores for positions [j_begin, n): DotUnchecked's loop
// per position, run for a block of positions at a time so K's
// dimension-major rows stream contiguously. Always inlined, also into the
// AVX2 kernel's tail: an AVX2 function that calls (or tail-jumps) into
// non-VEX code with dirty upper vector halves leaves the CPU in a state
// where later SSE code, std::exp included, runs many times slower.
[[gnu::always_inline]] inline void ScoresScalarFrom(const float* q, const float* k,
                                                    std::size_t stride, std::size_t head_dim,
                                                    std::size_t j_begin, std::size_t n,
                                                    float scale, float* scores) {
  for (std::size_t j0 = j_begin; j0 < n; j0 += kBlock) {
    const std::size_t m = std::min(kBlock, n - j0);
    float a0[kBlock] = {};
    float a1[kBlock] = {};
    float a2[kBlock] = {};
    float a3[kBlock] = {};
    std::size_t i = 0;
    for (; i + 4 <= head_dim; i += 4) {
      const float* k0 = k + i * stride + j0;
      const float* k1 = k0 + stride;
      const float* k2 = k1 + stride;
      const float* k3 = k2 + stride;
      for (std::size_t b = 0; b < m; ++b) {
        a0[b] += q[i] * k0[b];
        a1[b] += q[i + 1] * k1[b];
        a2[b] += q[i + 2] * k2[b];
        a3[b] += q[i + 3] * k3[b];
      }
    }
    for (; i < head_dim; ++i) {
      const float* ki = k + i * stride + j0;
      for (std::size_t b = 0; b < m; ++b) {
        a0[b] += q[i] * ki[b];
      }
    }
    for (std::size_t b = 0; b < m; ++b) {
      scores[j0 + b] = ((a0[b] + a1[b]) + (a2[b] + a3[b])) * scale;
    }
  }
}

// Exact-order scalar values for output dims [i_begin, head_dim):
// AxpyUnchecked's out[i] += p[j] * v[j][i] over ascending positions.
// Always inlined for the same reason as ScoresScalarFrom.
[[gnu::always_inline]] inline void ValuesScalarFrom(const float* p, const float* v,
                                                    std::size_t v_stride, std::size_t i_begin,
                                                    std::size_t head_dim, std::size_t n,
                                                    float* out) {
  for (std::size_t i = i_begin; i < head_dim; ++i) {
    out[i] = 0.0f;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const float pj = p[j];
    const float* vj = v + j * v_stride;
    for (std::size_t i = i_begin; i < head_dim; ++i) {
      out[i] += pj * vj[i];
    }
  }
}

void ScoresScalar(const float* q, const float* k, std::size_t stride, std::size_t head_dim,
                  std::size_t n, float scale, float* scores) {
  ScoresScalarFrom(q, k, stride, head_dim, 0, n, scale, scores);
}

void ValuesScalar(const float* p, const float* v, std::size_t v_stride, std::size_t head_dim,
                  std::size_t n, float* out) {
  ValuesScalarFrom(p, v, v_stride, 0, head_dim, n, out);
}

#ifdef CA_ATTENTION_X86

__attribute__((target("avx2"))) void ScoresAvx2(const float* q, const float* k,
                                                std::size_t stride, std::size_t head_dim,
                                                std::size_t n, float scale, float* scores) {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t j0 = 0;
  for (; j0 + kBlock <= n; j0 += kBlock) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= head_dim; i += 4) {
      const float* k0 = k + i * stride + j0;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(q[i]), _mm256_loadu_ps(k0)));
      a1 = _mm256_add_ps(a1,
                         _mm256_mul_ps(_mm256_set1_ps(q[i + 1]), _mm256_loadu_ps(k0 + stride)));
      a2 = _mm256_add_ps(
          a2, _mm256_mul_ps(_mm256_set1_ps(q[i + 2]), _mm256_loadu_ps(k0 + 2 * stride)));
      a3 = _mm256_add_ps(
          a3, _mm256_mul_ps(_mm256_set1_ps(q[i + 3]), _mm256_loadu_ps(k0 + 3 * stride)));
    }
    for (; i < head_dim; ++i) {
      a0 = _mm256_add_ps(
          a0, _mm256_mul_ps(_mm256_set1_ps(q[i]), _mm256_loadu_ps(k + i * stride + j0)));
    }
    const __m256 sum = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
    _mm256_storeu_ps(scores + j0, _mm256_mul_ps(sum, vscale));
  }
  ScoresScalarFrom(q, k, stride, head_dim, j0, n, scale, scores);
}

__attribute__((target("avx2"))) void ValuesAvx2(const float* p, const float* v,
                                                std::size_t v_stride, std::size_t head_dim,
                                                std::size_t n, float* out) {
  std::size_t i0 = 0;
  for (; i0 + 2 * kBlock <= head_dim; i0 += 2 * kBlock) {
    __m256 o0 = _mm256_setzero_ps();
    __m256 o1 = _mm256_setzero_ps();
    for (std::size_t j = 0; j < n; ++j) {
      const __m256 pj = _mm256_set1_ps(p[j]);
      const float* vj = v + j * v_stride + i0;
      o0 = _mm256_add_ps(o0, _mm256_mul_ps(pj, _mm256_loadu_ps(vj)));
      o1 = _mm256_add_ps(o1, _mm256_mul_ps(pj, _mm256_loadu_ps(vj + kBlock)));
    }
    _mm256_storeu_ps(out + i0, o0);
    _mm256_storeu_ps(out + i0 + kBlock, o1);
  }
  for (; i0 + kBlock <= head_dim; i0 += kBlock) {
    __m256 o0 = _mm256_setzero_ps();
    for (std::size_t j = 0; j < n; ++j) {
      o0 = _mm256_add_ps(o0,
                         _mm256_mul_ps(_mm256_set1_ps(p[j]), _mm256_loadu_ps(v + j * v_stride + i0)));
    }
    _mm256_storeu_ps(out + i0, o0);
  }
  ValuesScalarFrom(p, v, v_stride, i0, head_dim, n, out);
}

#endif  // CA_ATTENTION_X86

using ScoresKernel = void (*)(const float*, const float*, std::size_t, std::size_t, std::size_t,
                              float, float*);
using ValuesKernel = void (*)(const float*, const float*, std::size_t, std::size_t, std::size_t,
                              float*);

bool CpuHasAvx2() {
#ifdef CA_ATTENTION_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

ScoresKernel PickScoresKernel() {
#ifdef CA_ATTENTION_X86
  if (CpuHasAvx2()) {
    return &ScoresAvx2;
  }
#endif
  return &ScoresScalar;
}

ValuesKernel PickValuesKernel() {
#ifdef CA_ATTENTION_X86
  if (CpuHasAvx2()) {
    return &ValuesAvx2;
  }
#endif
  return &ValuesScalar;
}

}  // namespace

void AttentionScores(const float* q, const float* k, std::size_t stride, std::size_t head_dim,
                     std::size_t n, float scale, float* scores) {
  static const ScoresKernel kernel = PickScoresKernel();
  kernel(q, k, stride, head_dim, n, scale, scores);
}

void AttentionValues(const float* p, const float* v, std::size_t v_stride, std::size_t head_dim,
                     std::size_t n, float* out) {
  static const ValuesKernel kernel = PickValuesKernel();
  kernel(p, v, v_stride, head_dim, n, out);
}

}  // namespace ca
