// LSTM gate kernels shared by training (nn::Lstm::forward) and serving
// (forecast::Engine): a clamped rational tanh, sigmoid through the
// half-angle identity, and the fused gate activation + cell update of one
// row.  Both callers run these exact functions, so a training-path forward
// and an engine score produce the same bits (DESIGN.md §8, §13).
//
// tanh is the odd rational P13(x)/Q6(x) on [-7.905, 7.905] (the classic
// single-precision minimax fit several inference runtimes use; |err| is a
// few float ulp over the clamp range), sigmoid(x) = 0.5·tanh(x/2) + 0.5.
// Every multiply-add is written as a fused multiply-add — _mm256_fmadd_ps
// on the AVX2 path, std::fma on the scalar one — never left to
// -ffp-contract, so a column gets the same bits whether it lands in an
// 8-wide group or in the scalar tail.  NaN propagates on both paths.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace evfl::nn {

namespace detail {
constexpr float kTanhClamp = 7.90531110763549805f;
constexpr float kTanhA1 = 4.89352455891786e-03f;
constexpr float kTanhA3 = 6.37261928875436e-04f;
constexpr float kTanhA5 = 1.48572235717979e-05f;
constexpr float kTanhA7 = 5.12229709037114e-08f;
constexpr float kTanhA9 = -8.60467152213735e-11f;
constexpr float kTanhA11 = 2.00018790482477e-13f;
constexpr float kTanhA13 = -2.76076847742355e-16f;
constexpr float kTanhB0 = 4.89352518554385e-03f;
constexpr float kTanhB2 = 2.26843463243900e-03f;
constexpr float kTanhB4 = 1.18534705686654e-04f;
constexpr float kTanhB6 = 1.19825839466702e-06f;
}  // namespace detail

inline float tanh_fast(float x) {
  using namespace detail;
  x = std::clamp(x, -kTanhClamp, kTanhClamp);  // NaN stays NaN
  const float x2 = x * x;
  float p = kTanhA13;
  p = std::fma(p, x2, kTanhA11);
  p = std::fma(p, x2, kTanhA9);
  p = std::fma(p, x2, kTanhA7);
  p = std::fma(p, x2, kTanhA5);
  p = std::fma(p, x2, kTanhA3);
  p = std::fma(p, x2, kTanhA1);
  float q = kTanhB6;
  q = std::fma(q, x2, kTanhB4);
  q = std::fma(q, x2, kTanhB2);
  q = std::fma(q, x2, kTanhB0);
  return (p * x) / q;
}

inline float sigmoid_fast(float x) {
  return std::fma(0.5f, tanh_fast(0.5f * x), 0.5f);
}

#if defined(__AVX2__) && defined(__FMA__)

inline __m256 tanh_fast8(__m256 x) {
  using namespace detail;
  // MINPS/MAXPS return their second operand when either is NaN, so x goes
  // second: a NaN lane stays NaN, exactly like std::clamp above.
  x = _mm256_max_ps(_mm256_set1_ps(-kTanhClamp),
                    _mm256_min_ps(_mm256_set1_ps(kTanhClamp), x));
  const __m256 x2 = _mm256_mul_ps(x, x);
  const auto step = [&](__m256 acc, float c) {
    return _mm256_fmadd_ps(acc, x2, _mm256_set1_ps(c));
  };
  __m256 p = _mm256_set1_ps(kTanhA13);
  p = step(p, kTanhA11);
  p = step(p, kTanhA9);
  p = step(p, kTanhA7);
  p = step(p, kTanhA5);
  p = step(p, kTanhA3);
  p = step(p, kTanhA1);
  __m256 q = _mm256_set1_ps(kTanhB6);
  q = step(q, kTanhB4);
  q = step(q, kTanhB2);
  q = step(q, kTanhB0);
  return _mm256_div_ps(_mm256_mul_ps(p, x), q);
}

inline __m256 sigmoid_fast8(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  return _mm256_fmadd_ps(half, tanh_fast8(_mm256_mul_ps(half, x)), half);
}

#endif  // __AVX2__ && __FMA__

/// One row of an LSTM step.  `z` holds the row's pre-activations
/// [i | f | g | o] (gate k at z + k·h); `c` is updated in place to
/// c' = σ(f)·c + σ(i)·tanh(g) (one fused multiply-add), and
/// h = σ(o)·tanh(c').  With kStore the activated gates overwrite z and
/// tanh(c') goes to `ct` — the values BPTT reads; serving passes
/// kStore = false and ct = nullptr.
template <bool kStore>
inline void lstm_cell_row(float* z, float* c, float* hs, float* ct,
                          std::size_t h) {
  std::size_t k = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; k + 8 <= h; k += 8) {
    const __m256 gi = sigmoid_fast8(_mm256_loadu_ps(z + k));
    const __m256 gf = sigmoid_fast8(_mm256_loadu_ps(z + h + k));
    const __m256 gg = tanh_fast8(_mm256_loadu_ps(z + 2 * h + k));
    const __m256 go = sigmoid_fast8(_mm256_loadu_ps(z + 3 * h + k));
    const __m256 cv =
        _mm256_fmadd_ps(gf, _mm256_loadu_ps(c + k), _mm256_mul_ps(gi, gg));
    const __m256 tc = tanh_fast8(cv);
    const __m256 hv = _mm256_mul_ps(go, tc);
    _mm256_storeu_ps(c + k, cv);
    _mm256_storeu_ps(hs + k, hv);
    if constexpr (kStore) {
      _mm256_storeu_ps(z + k, gi);
      _mm256_storeu_ps(z + h + k, gf);
      _mm256_storeu_ps(z + 2 * h + k, gg);
      _mm256_storeu_ps(z + 3 * h + k, go);
      _mm256_storeu_ps(ct + k, tc);
    }
  }
#endif
  for (; k < h; ++k) {
    const float gi = sigmoid_fast(z[k]);
    const float gf = sigmoid_fast(z[h + k]);
    const float gg = tanh_fast(z[2 * h + k]);
    const float go = sigmoid_fast(z[3 * h + k]);
    const float cv = std::fma(gf, c[k], gi * gg);
    const float tc = tanh_fast(cv);
    const float hv = go * tc;
    c[k] = cv;
    hs[k] = hv;
    if constexpr (kStore) {
      z[k] = gi;
      z[h + k] = gf;
      z[2 * h + k] = gg;
      z[3 * h + k] = go;
      ct[k] = tc;
    }
  }
}

}  // namespace evfl::nn
