// LSTM step kernels shared by training (nn::Lstm::forward) and serving
// (forecast::Engine): the z-init b + x·Wx (fused_init_z), a clamped
// rational tanh, sigmoid through the half-angle identity, and the fused
// gate activation + cell update of a step's rows (lstm_cell_rows).  Both
// callers run these, so a training-path forward and an engine score
// produce the same bits (DESIGN.md §8, §13).
//
// tanh is the odd rational P13(x)/Q6(x) on [-7.905, 7.905] (the classic
// single-precision minimax fit several inference runtimes use; |err| is a
// few float ulp over the clamp range), sigmoid(x) = 0.5·tanh(x/2) + 0.5.
// Every multiply-add is written as a fused multiply-add — _mm512_fmadd_ps
// on 16 lanes, _mm256_fmadd_ps on 8, std::fma on the scalar path — never
// left to -ffp-contract, so a column gets the same bits whether it lands
// in a 16- or 8-lane vector, a row pair, a vector across rows or the
// scalar tail.  NaN propagates on every path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#if (defined(__AVX2__) && defined(__FMA__)) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "tensor/matrix.hpp"

namespace evfl::nn {

/// z = b + x·Wx for the `rows` rows of an LSTM step: row r's inputs start
/// at x + r·xstride and its pre-activations at z + r·zstride; b and each of
/// Wx's `in` rows (at wx + f·cols) hold `cols` floats, and all `cols`
/// columns of z are written.  Every element starts from its bias and takes
/// one fused multiply-add per input in ascending order, the sequence of a
/// bias copy followed by tensor::matmul_acc.  With one input that is a
/// single pass, z = fma(x, wx, b): at 32 rows and 4H = 200 it took 395 ns
/// where the copy and the product took 732.  Wider inputs run the copy
/// and the product, since a fused loop over 25 or 50 inputs took 4.9-5.7x
/// their time at 32 rows (DESIGN.md §8).
inline void fused_init_z(float* z, std::size_t zstride, const float* x,
                         std::size_t xstride, std::size_t rows, std::size_t in,
                         const float* b, const float* wx, std::size_t cols) {
  if (in == 1) {
    for (std::size_t r = 0; r < rows; ++r) {
      float* zr = z + r * zstride;
      const float xv = x[r * xstride];
      for (std::size_t c = 0; c < cols; ++c) zr[c] = std::fma(xv, wx[c], b[c]);
    }
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(b, b + cols, z + r * zstride);
  }
  tensor::matmul_acc(tensor::ConstMatView{x, rows, in, xstride},
                     tensor::ConstMatView{wx, in, cols, cols},
                     tensor::MatView{z, rows, cols, zstride});
}

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

#if defined(__AVX512F__)

/// tanh_fast8 on 16 lanes: the same clamp, polynomial and divide.
inline __m512 tanh_fast16(__m512 x) {
  using namespace detail;
  // x second for the same reason as in tanh_fast8: a NaN lane stays NaN.
  // The zero-masking forms with every lane enabled, since GCC 12 flags the
  // undefined pass-through of _mm512_min_ps/_mm512_max_ps.
  x = _mm512_maskz_max_ps(
      0xFFFF, _mm512_set1_ps(-kTanhClamp),
      _mm512_maskz_min_ps(0xFFFF, _mm512_set1_ps(kTanhClamp), x));
  const __m512 x2 = _mm512_mul_ps(x, x);
  const auto step = [&](__m512 acc, float c) {
    return _mm512_fmadd_ps(acc, x2, _mm512_set1_ps(c));
  };
  __m512 p = _mm512_set1_ps(kTanhA13);
  p = step(p, kTanhA11);
  p = step(p, kTanhA9);
  p = step(p, kTanhA7);
  p = step(p, kTanhA5);
  p = step(p, kTanhA3);
  p = step(p, kTanhA1);
  __m512 q = _mm512_set1_ps(kTanhB6);
  q = step(q, kTanhB4);
  q = step(q, kTanhB2);
  q = step(q, kTanhB0);
  return _mm512_div_ps(_mm512_mul_ps(p, x), q);
}

inline __m512 sigmoid_fast16(__m512 x) {
  const __m512 half = _mm512_set1_ps(0.5f);
  return _mm512_fmadd_ps(half, tanh_fast16(_mm512_mul_ps(half, x)), half);
}

namespace detail {

// How a 16-lane step reaches its elements.  Each access takes the address
// of the element lane 0 reads.  Only zero-masking, merge-masking and
// scatter forms are used: GCC 12 flags the undefined pass-through of the
// plain insert, extract, cast, min/max and gather intrinsics
// (-Wmaybe-uninitialized).

/// 16 consecutive floats of one row.
struct Contiguous16 {
  static __m512 load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, __m512 v) { _mm512_storeu_ps(p, v); }
};

/// 8 consecutive floats of two rows `next` floats apart: the first row in
/// lanes 0-7, the second in lanes 8-15.  Each half moves as one 32-byte
/// load or store, so a scalar access next to it still forwards; a
/// 64-byte masked load or store over both rows' ends made the scalar
/// tails after it wait for the store to commit (H = 13 and 25 ran 2x
/// slower than the row path).
struct RowPair {
  std::size_t next;
  __m512 load(const float* p) const {
    const __m512d lo = _mm512_maskz_broadcast_f64x4(
        0x0F, _mm256_castps_pd(_mm256_loadu_ps(p)));
    return _mm512_castpd_ps(_mm512_mask_broadcast_f64x4(
        lo, 0xF0, _mm256_castps_pd(_mm256_loadu_ps(p + next))));
  }
  void store(float* p, __m512 v) const {
    const __m512d d = _mm512_castps_pd(v);
    _mm256_storeu_ps(
        p, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0x0F, d, 0)));
    _mm256_storeu_ps(
        p + next, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0x0F, d, 1)));
  }
};

/// One column of 16 rows: lane r reads p[idx[r]].
struct AcrossRows {
  __m512i idx;
  __m512 load(const float* p) const {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF, idx, p, 4);
  }
  void store(float* p, __m512 v) const {
    _mm512_i32scatter_ps(p, idx, v, 4);
  }
};

/// Lane r of the result is r·stride.
inline __m512i row_offsets(std::size_t stride) {
  return _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(stride)));
}

/// 16 elements of an LSTM step at column k: z, cp, c, hs and ct are the
/// rows' first elements; `za` reaches z's elements and `ca` those of cp,
/// c, hs and ct.  Each element runs lstm_cell_row's operations.
template <bool kStore, typename ZA, typename CA>
inline void cell_step16(const ZA& za, const CA& ca, float* z, const float* cp,
                        float* c, float* hs, float* ct, std::size_t h,
                        std::size_t k) {
  const __m512 gi = sigmoid_fast16(za.load(z + k));
  const __m512 gf = sigmoid_fast16(za.load(z + h + k));
  const __m512 gg = tanh_fast16(za.load(z + 2 * h + k));
  const __m512 go = sigmoid_fast16(za.load(z + 3 * h + k));
  const __m512 cv =
      _mm512_fmadd_ps(gf, ca.load(cp + k), _mm512_mul_ps(gi, gg));
  const __m512 tc = tanh_fast16(cv);
  const __m512 hv = _mm512_mul_ps(go, tc);
  ca.store(c + k, cv);
  ca.store(hs + k, hv);
  if constexpr (kStore) {
    za.store(z + k, gi);
    za.store(z + h + k, gf);
    za.store(z + 2 * h + k, gg);
    za.store(z + 3 * h + k, go);
    ca.store(ct + k, tc);
  }
}

}  // namespace detail

#endif  // __AVX512F__

namespace detail {

/// Column k of lstm_cell_row's scalar tail.
template <bool kStore>
inline void cell_scalar(float* z, const float* cp, float* c, float* hs,
                        float* ct, std::size_t h, std::size_t k) {
  const float gi = sigmoid_fast(z[k]);
  const float gf = sigmoid_fast(z[h + k]);
  const float gg = tanh_fast(z[2 * h + k]);
  const float go = sigmoid_fast(z[3 * h + k]);
  const float cv = std::fma(gf, cp[k], gi * gg);
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

}  // namespace detail

/// One row of an LSTM step.  `z` holds the row's pre-activations
/// [i | f | g | o] (gate k at z + k·h); from the previous cell state `cp`
/// it writes c' = σ(f)·cp + σ(i)·tanh(g) (one fused multiply-add) to `c`
/// and h = σ(o)·tanh(c') to `hs`.  `cp` may be `c` itself (an update in
/// place, as serving runs it) or a separate row that is only read (the
/// previous step's cache in training).  With kStore the activated gates
/// overwrite z and tanh(c') goes to `ct` — the values BPTT reads; serving
/// passes kStore = false and ct = nullptr.  Columns run 16 lanes at a
/// time where the target has AVX-512F, then 8 (at most one group after
/// the 16-lane ones), then one at a time; kTail = false stops after the
/// last whole 8-lane group.
template <bool kStore, bool kTail = true>
inline void lstm_cell_row(float* z, const float* cp, float* c, float* hs,
                          float* ct, std::size_t h) {
  std::size_t k = 0;
#if defined(__AVX512F__)
  for (; k + 16 <= h; k += 16) {
    detail::cell_step16<kStore>(detail::Contiguous16{}, detail::Contiguous16{},
                                z, cp, c, hs, ct, h, k);
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  for (; k + 8 <= h; k += 8) {
    const __m256 gi = sigmoid_fast8(_mm256_loadu_ps(z + k));
    const __m256 gf = sigmoid_fast8(_mm256_loadu_ps(z + h + k));
    const __m256 gg = tanh_fast8(_mm256_loadu_ps(z + 2 * h + k));
    const __m256 go = sigmoid_fast8(_mm256_loadu_ps(z + 3 * h + k));
    const __m256 cv =
        _mm256_fmadd_ps(gf, _mm256_loadu_ps(cp + k), _mm256_mul_ps(gi, gg));
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
  if constexpr (kTail) {
    for (; k < h; ++k) detail::cell_scalar<kStore>(z, cp, c, hs, ct, h, k);
  }
}

#if defined(__AVX512F__)

namespace detail {

/// Whether a step's rows run in pairs (cell_pair): where h % 16 >= 8 a
/// row ends in one 8-lane group, and two rows' groups fill a 16-lane
/// vector.  `tail` says whether each row's scalar tail follows the pair.
/// Below 16 columns a pair followed by a scalar tail of two or more
/// columns measured slower than two rows alone (H = 10-15, 32 rows:
/// 1.2-1.5x the row path's time), so outside 16-row blocks those rows run
/// the row path.  In a block, whose tail columns run across rows, pairs
/// at those H take 0.5-0.65x the time of the rows' 8-lane groups alone.
constexpr bool pair_rows(std::size_t h, bool tail) {
  return h % 16 >= 8 && (!tail || h > 16 || h % 8 <= 1);
}

/// Two adjacent rows where h % 16 >= 8: each row's 16-lane groups, then
/// the two rows' 8-lane groups as the halves of one vector, then (kTail)
/// each row's scalar tail.  The rows' z are zstride apart and their cp,
/// c, h and tanh(c) h apart.
template <bool kStore, bool kTail>
inline void cell_pair(float* z, std::size_t zstride, const float* cp,
                      float* c, float* hs, float* ct, std::size_t h) {
  float* z1 = z + zstride;
  const float* cp1 = cp + h;
  float* c1 = c + h;
  float* hs1 = hs + h;
  float* ct1 = kStore ? ct + h : ct;
  const std::size_t k8 = h / 16 * 16;
  for (std::size_t k = 0; k < k8; k += 16) {
    cell_step16<kStore>(Contiguous16{}, Contiguous16{}, z, cp, c, hs, ct, h,
                        k);
    cell_step16<kStore>(Contiguous16{}, Contiguous16{}, z1, cp1, c1, hs1, ct1,
                        h, k);
  }
  cell_step16<kStore>(RowPair{zstride}, RowPair{h}, z, cp, c, hs, ct, h, k8);
  if constexpr (kTail) {
    for (std::size_t k = k8 + 8; k < h; ++k) {
      cell_scalar<kStore>(z, cp, c, hs, ct, h, k);
      cell_scalar<kStore>(z1, cp1, c1, hs1, ct1, h, k);
    }
  }
}

/// 16 rows where h % 8 != 0: each row's (or, where pair_rows(h, false),
/// each row pair's) whole 8-lane groups, then each of the h % 8 columns
/// after them as one vector down the 16 rows.
template <bool kStore>
inline void cell_block16(float* z, std::size_t zstride, const float* cp,
                         float* c, float* hs, float* ct, std::size_t h,
                         const AcrossRows& zrows, const AcrossRows& crows) {
  for (std::size_t r = 0; r < 16;) {
    float* ctr = kStore ? ct + r * h : ct;
    if (pair_rows(h, false)) {
      cell_pair<kStore, false>(z + r * zstride, zstride, cp + r * h,
                               c + r * h, hs + r * h, ctr, h);
      r += 2;
    } else {
      lstm_cell_row<kStore, false>(z + r * zstride, cp + r * h, c + r * h,
                                   hs + r * h, ctr, h);
      ++r;
    }
  }
  for (std::size_t k = h / 8 * 8; k < h; ++k) {
    cell_step16<kStore>(zrows, crows, z, cp, c, hs, ct, h, k);
  }
}

/// The multi-row paths of lstm_cell_rows: whole 16-row blocks where
/// h % 8 != 0, then row pairs where pair_rows(h, true).  Returns the first
/// row they leave.  Kept out of line so that the one-row steps of batch-1
/// predict do not carry this code around their loop: inlined, it slowed
/// `Sequential::predict` of the fleet leaf (H = 8, one row) by 2%.
template <bool kStore>
[[gnu::noinline]] std::size_t cell_rows_wide(float* z, std::size_t zstride,
                                             const float* cp, float* c,
                                             float* hs, float* ct,
                                             std::size_t h,
                                             std::size_t rows) {
  std::size_t r = 0;
  if (h % 8 != 0 && rows >= 16) {
    const AcrossRows zrows{row_offsets(zstride)};
    const AcrossRows crows{row_offsets(h)};
    for (; r + 16 <= rows; r += 16) {
      cell_block16<kStore>(z + r * zstride, zstride, cp + r * h, c + r * h,
                           hs + r * h, kStore ? ct + r * h : ct, h, zrows,
                           crows);
    }
  }
  if (pair_rows(h, true)) {
    for (; r + 2 <= rows; r += 2) {
      cell_pair<kStore, true>(z + r * zstride, zstride, cp + r * h, c + r * h,
                              hs + r * h, kStore ? ct + r * h : ct, h);
    }
  }
  return r;
}

}  // namespace detail

#endif  // __AVX512F__

/// `rows` rows of an LSTM step, the one row loop of Lstm::forward and the
/// serving engine: row r's pre-activations start at z + r·zstride and its
/// previous cell state, c, h and tanh(c) at cp + r·h, c + r·h, hs + r·h
/// and ct + r·h.  `cp` is only read, and may equal `c`: the engine updates
/// its one c buffer in place, while training reads step t − 1's cache and
/// writes step t's.  Every element runs
/// lstm_cell_row's operations, so a row gets the same bits whichever of
/// the paths below it takes.  Where the target has AVX-512F:
///  - with h % 8 != 0, whole blocks of 16 rows run as cell_block16, so the
///    h % 8 columns after the last 8-lane group run across rows instead of
///    one element at a time;
///  - where pair_rows(h, true), the remaining rows run in pairs
///    (cell_pair);
/// and the rows left run lstm_cell_row alone.
template <bool kStore>
inline void lstm_cell_rows(float* z, std::size_t zstride, const float* cp,
                           float* c, float* hs, float* ct, std::size_t h,
                           std::size_t rows) {
  std::size_t r = 0;
#if defined(__AVX512F__)
  if (rows >= 2) {
    r = detail::cell_rows_wide<kStore>(z, zstride, cp, c, hs, ct, h, rows);
  }
#endif
  for (; r < rows; ++r) {
    lstm_cell_row<kStore>(z + r * zstride, cp + r * h, c + r * h, hs + r * h,
                          kStore ? ct + r * h : ct, h);
  }
}

}  // namespace evfl::nn
