#include "forecast/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "metrics/timer.hpp"
#include "nn/activation.hpp"
#include "nn/lstm_kernels.hpp"
#include "nn/quant.hpp"
#include "runtime/workspace.hpp"

namespace evfl::forecast {

namespace {

using tensor::ConstMatView;
using tensor::MatView;

/// fp32 panel width: the packed recurrent kernel computes 32 output
/// columns (4 ymm accumulators) per pass, and the padded gate stride is a
/// multiple of this so panel stores never cross a row.
constexpr std::size_t kPanelF32 = 32;
/// int8 panel width: 16 output columns per pass (2 ymm of s32 dots).
constexpr std::size_t kPanelS8 = 16;
/// int8 k interleave: vpmaddubsw + vpmaddwd consume 4 k's per column.
constexpr std::size_t kQuad = 4;

std::size_t roundup(std::size_t n, std::size_t m) {
  return (n + m - 1) / m * m;
}

/// z[r][0..zstride) = b_pad + Σ_f x[r][f]·wx_pad[f] in a single pass:
/// each element starts from its bias and takes one fused multiply-add per
/// input feature in ascending order — the sequence Lstm::forward runs
/// through tensor::matmul_acc.  Padding columns are zero in b_pad/wx_pad,
/// so the z padding is always a defined 0.  One pass over z, where a bias
/// copy followed by matmul_acc takes two and measured 2.5–7x slower.
void fused_init_z(float* z, std::size_t zstride, std::size_t nb,
                  const float* xrow0, std::size_t xrow_stride, std::size_t in,
                  const std::vector<float>& b_pad,
                  const std::vector<float>& wx_pad) {
  for (std::size_t r = 0; r < nb; ++r) {
    float* zr = z + r * zstride;
    const float* xr = xrow0 + r * xrow_stride;
    const float x0 = xr[0];
    const float* w0 = wx_pad.data();
    for (std::size_t c = 0; c < zstride; ++c) {
      zr[c] = std::fma(x0, w0[c], b_pad[c]);
    }
    for (std::size_t f = 1; f < in; ++f) {
      const float xv = xr[f];
      const float* wf = wx_pad.data() + f * zstride;
      for (std::size_t c = 0; c < zstride; ++c) {
        zr[c] = std::fma(xv, wf[c], zr[c]);
      }
    }
  }
}

/// Register-blocked recurrent GEMM on the packed panel layout:
/// z[r][p·32..p·32+32) += h[r]·wh_panel(p).  Panels are looped outermost
/// so a ~H·32-float weight panel stays L1-resident across every row of
/// the batch (the naive row-major kernel re-streams the whole 4H·H
/// kernel from L2 per row, which is what made it memory-bound).  Two
/// rows share each weight load.  Each element runs fma over ascending k
/// from its z value — the tensor::matmul_acc sequence, so the result is
/// bit-identical to that kernel and independent of the row partition.
/// Builds without AVX2+FMA run matmul_acc on each panel instead.  The
/// generic kernel over the unpacked [H, 4H] matrix measured up to 1.5x
/// slower here (DESIGN.md §13).
void gemm_f32_panels(const float* hbuf, std::size_t h, float* z,
                     std::size_t zstride, std::size_t nb,
                     const std::vector<float>& panels) {
  const std::size_t np = zstride / kPanelF32;
  for (std::size_t p = 0; p < np; ++p) {
    const float* wpanel = panels.data() + p * h * kPanelF32;
    const std::size_t j = p * kPanelF32;
    std::size_t r = 0;
#if defined(__AVX2__) && defined(__FMA__)
    for (; r + 2 <= nb; r += 2) {
      const float* h0 = hbuf + r * h;
      const float* h1 = h0 + h;
      float* z0 = z + r * zstride + j;
      float* z1 = z0 + zstride;
      __m256 a00 = _mm256_loadu_ps(z0);
      __m256 a01 = _mm256_loadu_ps(z0 + 8);
      __m256 a02 = _mm256_loadu_ps(z0 + 16);
      __m256 a03 = _mm256_loadu_ps(z0 + 24);
      __m256 a10 = _mm256_loadu_ps(z1);
      __m256 a11 = _mm256_loadu_ps(z1 + 8);
      __m256 a12 = _mm256_loadu_ps(z1 + 16);
      __m256 a13 = _mm256_loadu_ps(z1 + 24);
      const float* wk = wpanel;
      for (std::size_t k = 0; k < h; ++k, wk += kPanelF32) {
        const __m256 w0 = _mm256_loadu_ps(wk);
        const __m256 w1 = _mm256_loadu_ps(wk + 8);
        const __m256 w2 = _mm256_loadu_ps(wk + 16);
        const __m256 w3 = _mm256_loadu_ps(wk + 24);
        const __m256 b0 = _mm256_set1_ps(h0[k]);
        const __m256 b1 = _mm256_set1_ps(h1[k]);
        a00 = _mm256_fmadd_ps(b0, w0, a00);
        a01 = _mm256_fmadd_ps(b0, w1, a01);
        a02 = _mm256_fmadd_ps(b0, w2, a02);
        a03 = _mm256_fmadd_ps(b0, w3, a03);
        a10 = _mm256_fmadd_ps(b1, w0, a10);
        a11 = _mm256_fmadd_ps(b1, w1, a11);
        a12 = _mm256_fmadd_ps(b1, w2, a12);
        a13 = _mm256_fmadd_ps(b1, w3, a13);
      }
      _mm256_storeu_ps(z0, a00);
      _mm256_storeu_ps(z0 + 8, a01);
      _mm256_storeu_ps(z0 + 16, a02);
      _mm256_storeu_ps(z0 + 24, a03);
      _mm256_storeu_ps(z1, a10);
      _mm256_storeu_ps(z1 + 8, a11);
      _mm256_storeu_ps(z1 + 16, a12);
      _mm256_storeu_ps(z1 + 24, a13);
    }
    for (; r < nb; ++r) {
      const float* h0 = hbuf + r * h;
      float* z0 = z + r * zstride + j;
      __m256 a00 = _mm256_loadu_ps(z0);
      __m256 a01 = _mm256_loadu_ps(z0 + 8);
      __m256 a02 = _mm256_loadu_ps(z0 + 16);
      __m256 a03 = _mm256_loadu_ps(z0 + 24);
      const float* wk = wpanel;
      for (std::size_t k = 0; k < h; ++k, wk += kPanelF32) {
        const __m256 b0 = _mm256_set1_ps(h0[k]);
        a00 = _mm256_fmadd_ps(b0, _mm256_loadu_ps(wk), a00);
        a01 = _mm256_fmadd_ps(b0, _mm256_loadu_ps(wk + 8), a01);
        a02 = _mm256_fmadd_ps(b0, _mm256_loadu_ps(wk + 16), a02);
        a03 = _mm256_fmadd_ps(b0, _mm256_loadu_ps(wk + 24), a03);
      }
      _mm256_storeu_ps(z0, a00);
      _mm256_storeu_ps(z0 + 8, a01);
      _mm256_storeu_ps(z0 + 16, a02);
      _mm256_storeu_ps(z0 + 24, a03);
    }
#endif  // __AVX2__ && __FMA__
    if (r < nb) {
      tensor::matmul_acc(ConstMatView{hbuf + r * h, nb - r, h, h},
                         ConstMatView{wpanel, h, kPanelF32, kPanelF32},
                         MatView{z + r * zstride + j, nb - r, kPanelF32,
                                 zstride});
    }
  }
}

/// Quantize activation rows for the unsigned int8 kernel: per-row
/// symmetric scale maxabs/127 (dynamic — no calibration pass; hmax[r] =
/// max|h| comes precomputed from the gates pass), codes stored u8 around
/// zero point 128 at quad-padded offsets (padding code 128 ≡ 0, and the
/// matching weight padding codes are 0, so padding adds nothing).
/// Rounding is nearest-even on both the SIMD (cvtps2dq) and scalar
/// (nearbyint) paths, so the codes are identical either way.
void quantize_rows_u8(const float* hbuf, std::size_t h, std::size_t nb,
                      const float* hmax, std::uint8_t* aq, float* ascale,
                      std::size_t padded_k) {
  const int qmax = nn::quant_qmax(8);  // 127: activations keep all 8 bits
  for (std::size_t r = 0; r < nb; ++r) {
    const float* src = hbuf + r * h;
    std::uint8_t* dst = aq + r * padded_k;
    const float maxabs = hmax[r];
    const float scale =
        maxabs > 0.0f ? maxabs / static_cast<float>(qmax) : 0.0f;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    ascale[r] = scale;
    std::size_t k = 0;
#if defined(__AVX2__)
    {
      const __m256 invv = _mm256_set1_ps(inv);
      const __m256i off = _mm256_set1_epi32(128);
      const __m256i lo = _mm256_set1_epi32(-qmax);
      const __m256i hi = _mm256_set1_epi32(qmax);
      for (; k + 8 <= h; k += 8) {
        __m256i q =
            _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(src + k), invv));
        q = _mm256_max_epi32(lo, _mm256_min_epi32(hi, q));
        q = _mm256_add_epi32(q, off);
        const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                            _mm256_extracti128_si256(q, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + k),
                         _mm_packus_epi16(w16, w16));
      }
    }
#endif
    for (; k < h; ++k) {
      const int q = std::clamp(static_cast<int>(std::nearbyint(src[k] * inv)),
                               -qmax, qmax);
      dst[k] = static_cast<std::uint8_t>(q + 128);
    }
    for (; k < padded_k; ++k) dst[k] = 128;
  }
}

/// z[r][j] += dot(a_s8[r], w_s7[:, j]) · ascale[r] · wscale[kb][j] — the
/// quantized recurrent matmul on the quad-interleaved panel layout (see
/// detail::QuantMat).  The integer dots are exact and the float epilogue
/// runs once per (row, kblock, column) in ascending kblock order on both
/// the SIMD and scalar paths, so the two agree bitwise.
void gemm_u8s7(const std::uint8_t* aq, std::size_t a_stride,
               const float* ascale, std::size_t nb, const detail::QuantMat& w,
               float* z, std::size_t zstride) {
  const std::size_t panels = w.padded_cols / kPanelS8;
  std::size_t code_off = 0;  // start of this kblock's codes
  std::size_t akoff = 0;     // start of this kblock's activation codes
  for (std::size_t kb = 0; kb < w.kblocks; ++kb) {
    const std::size_t cnt =
        std::min(nn::kQuantBlockSize, w.k - kb * nn::kQuantBlockSize);
    const std::size_t kq_b = (cnt + kQuad - 1) / kQuad;
    const float* ws = w.scales.data() + kb * w.padded_cols;
#if defined(__AVX2__) && defined(__FMA__)
    const std::int32_t* fix = w.colsum128.data() + kb * w.padded_cols;
    // Panels outermost, then 4-row groups: the ~kq_b·64-byte weight panel
    // and the per-panel fixup/scale vectors are loaded once per four rows
    // instead of once per row.  The integer dots are exact, so a row's
    // result is bitwise the same whether it lands in a 4-group or the
    // tail — chunking from parallel_for cannot change outputs.
    const __m256i ones = _mm256_set1_epi16(1);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::int8_t* wp = w.codes.data() + code_off + p * kq_b * 64;
      const std::size_t j = p * kPanelS8;
      const __m256i f0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fix + j));
      const __m256i f1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fix + j + 8));
      const __m256 ws0 = _mm256_loadu_ps(ws + j);
      const __m256 ws1 = _mm256_loadu_ps(ws + j + 8);
      const auto epilogue = [&](__m256i acc0, __m256i acc1, std::size_t r) {
        float* zrow = z + r * zstride;
        const __m256 asv = _mm256_set1_ps(ascale[r]);
        const __m256 d0 = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc0, f0));
        const __m256 d1 = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc1, f1));
        _mm256_storeu_ps(zrow + j,
                         _mm256_fmadd_ps(d0, _mm256_mul_ps(asv, ws0),
                                         _mm256_loadu_ps(zrow + j)));
        _mm256_storeu_ps(zrow + j + 8,
                         _mm256_fmadd_ps(d1, _mm256_mul_ps(asv, ws1),
                                         _mm256_loadu_ps(zrow + j + 8)));
      };
      std::size_t r = 0;
      for (; r + 4 <= nb; r += 4) {
        const std::uint8_t* a0 = aq + r * a_stride + akoff;
        const std::uint8_t* a1 = a0 + a_stride;
        const std::uint8_t* a2 = a1 + a_stride;
        const std::uint8_t* a3 = a2 + a_stride;
        __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
        __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
        __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
        __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
        for (std::size_t kq = 0; kq < kq_b; ++kq) {
          const __m256i w0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wp + kq * 64));
          const __m256i w1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wp + kq * 64 + 32));
          std::int32_t q0, q1, q2, q3;
          std::memcpy(&q0, a0 + kq * kQuad, sizeof(q0));
          std::memcpy(&q1, a1 + kq * kQuad, sizeof(q1));
          std::memcpy(&q2, a2 + kq * kQuad, sizeof(q2));
          std::memcpy(&q3, a3 + kq * kQuad, sizeof(q3));
          const __m256i av0 = _mm256_set1_epi32(q0);
          const __m256i av1 = _mm256_set1_epi32(q1);
          const __m256i av2 = _mm256_set1_epi32(q2);
          const __m256i av3 = _mm256_set1_epi32(q3);
          c00 = _mm256_add_epi32(
              c00, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, w0), ones));
          c01 = _mm256_add_epi32(
              c01, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, w1), ones));
          c10 = _mm256_add_epi32(
              c10, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, w0), ones));
          c11 = _mm256_add_epi32(
              c11, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, w1), ones));
          c20 = _mm256_add_epi32(
              c20, _mm256_madd_epi16(_mm256_maddubs_epi16(av2, w0), ones));
          c21 = _mm256_add_epi32(
              c21, _mm256_madd_epi16(_mm256_maddubs_epi16(av2, w1), ones));
          c30 = _mm256_add_epi32(
              c30, _mm256_madd_epi16(_mm256_maddubs_epi16(av3, w0), ones));
          c31 = _mm256_add_epi32(
              c31, _mm256_madd_epi16(_mm256_maddubs_epi16(av3, w1), ones));
        }
        epilogue(c00, c01, r);
        epilogue(c10, c11, r + 1);
        epilogue(c20, c21, r + 2);
        epilogue(c30, c31, r + 3);
      }
      for (; r < nb; ++r) {
        const std::uint8_t* a0 = aq + r * a_stride + akoff;
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (std::size_t kq = 0; kq < kq_b; ++kq) {
          std::int32_t quad;
          std::memcpy(&quad, a0 + kq * kQuad, sizeof(quad));
          const __m256i av = _mm256_set1_epi32(quad);
          const __m256i w0 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wp + kq * 64));
          const __m256i w1 = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(wp + kq * 64 + 32));
          acc0 = _mm256_add_epi32(
              acc0, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w0), ones));
          acc1 = _mm256_add_epi32(
              acc1, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w1), ones));
        }
        epilogue(acc0, acc1, r);
      }
    }
#else
    for (std::size_t r = 0; r < nb; ++r) {
      const std::uint8_t* arow = aq + r * a_stride;
      float* zrow = z + r * zstride;
      const float as = ascale[r];
      for (std::size_t j = 0; j < w.cols; ++j) {
        const std::size_t p = j / kPanelS8;
        const std::size_t lane = j % kPanelS8;
        const std::int8_t* wp = w.codes.data() + code_off + p * kq_b * 64;
        std::int32_t acc = 0;
        for (std::size_t kk = 0; kk < kq_b * kQuad; ++kk) {
          const int a_s = static_cast<int>(arow[akoff + kk]) - 128;
          acc += a_s * static_cast<std::int32_t>(
                           wp[(kk / kQuad) * 64 + lane * kQuad + kk % kQuad]);
        }
        zrow[j] = std::fma(static_cast<float>(acc), as * ws[j], zrow[j]);
      }
    }
#endif
    code_off += panels * kq_b * 64;
    akoff += kq_b * kQuad;
  }
}

/// Build the quad-interleaved 7-bit layout from a row-major [k x cols]
/// fp32 kernel, quantizing each output column independently on the
/// shared nn/quant.hpp grid (a column sees coherent value ranges, which
/// is exactly what per-block scaling wants).
void build_quant_mat(const float* w, std::size_t k, std::size_t cols,
                     detail::QuantMat& q, std::vector<float>& coltmp,
                     std::vector<float>& stmp,
                     std::vector<std::int8_t>& ctmp) {
  q.k = k;
  q.cols = cols;
  q.kblocks = (k + nn::kQuantBlockSize - 1) / nn::kQuantBlockSize;
  q.padded_cols = roundup(cols, kPanelS8);
  q.padded_k = 0;
  std::size_t total_quads = 0;
  for (std::size_t lo = 0; lo < k; lo += nn::kQuantBlockSize) {
    const std::size_t cnt = std::min(nn::kQuantBlockSize, k - lo);
    q.padded_k += roundup(cnt, kQuad);
    total_quads += roundup(cnt, kQuad) / kQuad;
  }
  const std::size_t panels = q.padded_cols / kPanelS8;
  q.codes.assign(panels * total_quads * 64, 0);
  q.scales.assign(q.kblocks * q.padded_cols, 0.0f);
  q.colsum128.assign(q.kblocks * q.padded_cols, 0);
  coltmp.resize(k);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) coltmp[kk] = w[kk * cols + j];
    // 7-bit codes: qmax 63, so the maddubs pair sums stay below 2^15.
    nn::block_quantize(coltmp.data(), k, 7, stmp, ctmp);
    const std::size_t p = j / kPanelS8;
    const std::size_t lane = j % kPanelS8;
    std::size_t code_off = 0;
    for (std::size_t kb = 0; kb < q.kblocks; ++kb) {
      const std::size_t lo = kb * nn::kQuantBlockSize;
      const std::size_t cnt = std::min(nn::kQuantBlockSize, k - lo);
      const std::size_t kq_b = (cnt + kQuad - 1) / kQuad;
      q.scales[kb * q.padded_cols + j] = stmp[kb];
      std::int32_t sum = 0;
      std::int8_t* base = q.codes.data() + code_off + p * kq_b * 64;
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::int8_t c = ctmp[lo + i];
        sum += c;
        base[(i / kQuad) * 64 + lane * kQuad + i % kQuad] = c;
      }
      q.colsum128[kb * q.padded_cols + j] = 128 * sum;
      code_off += panels * kq_b * 64;
    }
  }
}

/// Reshape-if-needed + copy (capacity reused when the shape is stable, so
/// the second publish into a slot does not allocate).
void assign_mat(tensor::Matrix& m, std::size_t rows, std::size_t cols,
                const float* src) {
  if (m.rows() != rows || m.cols() != cols) m = tensor::Matrix(rows, cols);
  std::memcpy(m.data(), src, rows * cols * sizeof(float));
}

}  // namespace

std::string to_string(ServePrecision p) {
  return p == ServePrecision::kInt8 ? "int8" : "fp32";
}

Engine::Engine(const ForecasterConfig& model, const EngineConfig& cfg,
               obs::Registry* registry)
    : model_(model), cfg_(cfg) {
  EVFL_REQUIRE(cfg_.max_batch > 0, "EngineConfig.max_batch must be > 0");
  readers_[0].store(0, std::memory_order_relaxed);
  readers_[1].store(0, std::memory_order_relaxed);
  if (registry != nullptr) {
    latency_ = &registry->histogram("engine.batch_seconds");
    forecasts_ = &registry->counter("engine.forecasts_total");
    batches_ = &registry->counter("engine.batches_total");
    version_gauge_ = &registry->gauge("engine.snapshot_version");
  }
}

void Engine::quant_roundtrip(tensor::Matrix& m, std::size_t rows,
                             std::size_t cols, const float* src) {
  const std::size_t n = rows * cols;
  nn::block_quantize(src, n, 8, freeze_scales_, freeze_quants_);
  if (m.rows() != rows || m.cols() != cols) m = tensor::Matrix(rows, cols);
  nn::block_dequantize(freeze_quants_.data(), freeze_scales_.data(), n,
                       m.data());
}

void Engine::freeze_into(Snapshot& snap, const std::vector<float>& flat) {
  const std::size_t h = model_.lstm_units;
  const std::size_t in = model_.input_features;
  const std::size_t d = model_.dense_units;
  const std::size_t g4 = 4 * h;

  // Sequential::get_weights layout: layer order, then param order within
  // layer, row-major within each matrix.
  const float* wx = flat.data();
  const float* wh = wx + in * g4;
  const float* b = wh + h * g4;
  const float* w1 = b + g4;
  const float* b1 = w1 + h * d;
  const float* w2 = b1 + d;
  const float* b2 = w2 + d;

  snap.quantized = cfg_.precision == ServePrecision::kInt8;
  snap.zstride = roundup(g4, kPanelF32);
  // Biases stay fp32 in both modes: they are O(params/50) bytes and
  // quantizing them buys nothing.
  assign_mat(snap.b1, 1, d, b1);
  assign_mat(snap.b2, 1, 1, b2);
  const float* wx_src = wx;
  if (snap.quantized) {
    // wx/w1/w2 are served round-tripped through the int8 grid, so the
    // snapshot serves the weights it advertises.
    quant_roundtrip(freeze_wx_, in, g4, wx);
    wx_src = freeze_wx_.data();
    quant_roundtrip(snap.w1, h, d, w1);
    quant_roundtrip(snap.w2, d, 1, w2);
    build_quant_mat(wh, h, g4, snap.wh_q, freeze_col_, freeze_scales_,
                    freeze_quants_);
    snap.wh_panels.clear();
  } else {
    assign_mat(snap.w1, h, d, w1);
    assign_mat(snap.w2, d, 1, w2);
    // Packed panels for the register-blocked recurrent GEMM
    // ([panel][k][32], zero-padded columns).
    snap.wh_panels.assign(snap.zstride * h, 0.0f);
    for (std::size_t p = 0; p < snap.zstride / kPanelF32; ++p) {
      for (std::size_t k = 0; k < h; ++k) {
        for (std::size_t j = 0; j < kPanelF32; ++j) {
          const std::size_t col = p * kPanelF32 + j;
          if (col < g4) {
            snap.wh_panels[(p * h + k) * kPanelF32 + j] = wh[k * g4 + col];
          }
        }
      }
    }
  }
  // Bias and input kernel zero-padded to zstride for the z-init.
  snap.b_pad.assign(snap.zstride, 0.0f);
  std::memcpy(snap.b_pad.data(), b, g4 * sizeof(float));
  snap.wx_pad.assign(in * snap.zstride, 0.0f);
  for (std::size_t f = 0; f < in; ++f) {
    std::memcpy(snap.wx_pad.data() + f * snap.zstride, wx_src + f * g4,
                g4 * sizeof(float));
  }
}

void Engine::publish(const std::vector<float>& flat_weights) {
  EVFL_REQUIRE(flat_weights.size() == forecaster_param_count(model_),
               "Engine::publish: weight count mismatch (" +
                   std::to_string(flat_weights.size()) + " vs " +
                   std::to_string(forecaster_param_count(model_)) + ")");
  const std::uint32_t next = active_.load(std::memory_order_relaxed) ^ 1u;
  // Drain stragglers still scoring against the slot we are about to
  // overwrite (they acquired it before the previous publish flipped away
  // from it).  Readers never wait; only the publisher does.
  while (readers_[next].load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  freeze_into(slots_[next], flat_weights);
  active_.store(next, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  if (version_gauge_ != nullptr) {
    version_gauge_->set(static_cast<double>(version()));
  }
}

std::uint32_t Engine::acquire_slot() {
  for (;;) {
    const std::uint32_t idx = active_.load(std::memory_order_acquire);
    readers_[idx].fetch_add(1, std::memory_order_acq_rel);
    // Publish may have flipped between the load and the increment; the
    // re-check makes the registration race-free: once it passes, any
    // publisher targeting this slot will see our count and wait.
    if (active_.load(std::memory_order_acquire) == idx) return idx;
    readers_[idx].fetch_sub(1, std::memory_order_release);
  }
}

void Engine::score(const tensor::Tensor3& x, float* out,
                   const runtime::RunContext* ctx) {
  score_prefix(x, x.batch(), out, ctx);
}

void Engine::score_prefix(const tensor::Tensor3& x, std::size_t rows,
                          float* out, const runtime::RunContext* ctx) {
  EVFL_REQUIRE(version_.load(std::memory_order_acquire) > 0,
               "Engine::score before any publish");
  const std::size_t batch = rows;
  EVFL_REQUIRE(batch > 0, "Engine::score: empty batch");
  EVFL_REQUIRE(batch <= x.batch(),
               "Engine::score_prefix: rows exceed the staging tensor");
  EVFL_REQUIRE(batch <= cfg_.max_batch,
               "Engine::score: batch " + std::to_string(batch) +
                   " exceeds max_batch " + std::to_string(cfg_.max_batch));
  EVFL_REQUIRE(x.features() == model_.input_features,
               "Engine::score: input feature mismatch");
  EVFL_REQUIRE(x.time() > 0, "Engine::score needs time >= 1");

  metrics::WallTimer timer;
  const std::uint32_t slot = acquire_slot();
  const Snapshot& snap = slots_[slot];
  if (ctx != nullptr && ctx->parallel() && batch > 1) {
    // Rows are independent and land at fixed output offsets, so the
    // partition is deterministic regardless of schedule.
    ctx->parallel_for(batch, ctx->grain_for(batch),
                      [&](std::size_t b0, std::size_t b1) {
                        score_rows(snap, x, out, b0, b1);
                      });
  } else {
    score_rows(snap, x, out, 0, batch);
  }
  readers_[slot].fetch_sub(1, std::memory_order_release);

  if (latency_ != nullptr) latency_->record(timer.seconds());
  if (forecasts_ != nullptr) forecasts_->add(static_cast<double>(batch));
  if (batches_ != nullptr) batches_->add(1.0);
}

void Engine::score(const tensor::Tensor3& x, std::vector<float>& out,
                   const runtime::RunContext* ctx) {
  out.resize(x.batch());
  score(x, out.data(), ctx);
}

void Engine::score_rows(const Snapshot& snap, const tensor::Tensor3& x,
                        float* out, std::size_t row_begin,
                        std::size_t row_end) const {
  const std::size_t nb = row_end - row_begin;
  const std::size_t h = model_.lstm_units;
  const std::size_t in = model_.input_features;
  const std::size_t d = model_.dense_units;
  const std::size_t zstride = snap.zstride;
  const std::size_t t_len = x.time();

  // All temporaries come from the calling thread's workspace lane and are
  // released on return — after the lane warms up, scoring never allocates.
  runtime::ScratchScope scratch(runtime::thread_workspace());
  float* z = scratch.borrow(nb * zstride);
  float* hbuf = scratch.borrow_zeroed(nb * h);   // h_0 = 0, like Lstm
  float* cbuf = scratch.borrow_zeroed(nb * h);   // c_0 = 0
  float* d1 = scratch.borrow(nb * d);
  float* o2 = scratch.borrow(nb);
  std::uint8_t* aq = nullptr;
  float* ascale = nullptr;
  float* hmax = nullptr;
  if (snap.quantized) {
    const std::size_t bytes = nb * snap.wh_q.padded_k;
    aq = reinterpret_cast<std::uint8_t*>(
        scratch.borrow((bytes + sizeof(float) - 1) / sizeof(float)));
    ascale = scratch.borrow(nb);
    hmax = scratch.borrow_zeroed(nb);  // max|h_0| = 0
  }

  const ConstMatView hv{hbuf, nb, h, h};
  const float* x0 = x.data() + row_begin * t_len * in;

  // Lstm::forward's step on the serving layout: z = b + x·Wx, the
  // recurrent GEMM on packed panels (both the per-element FMA sequence of
  // tensor::matmul_acc) or int8 codes, then the shared gate kernel.
  for (std::size_t t = 0; t < t_len; ++t) {
    fused_init_z(z, zstride, nb, x0 + t * in, t_len * in, in, snap.b_pad,
                 snap.wx_pad);
    if (snap.quantized) {
      quantize_rows_u8(hbuf, h, nb, hmax, aq, ascale, snap.wh_q.padded_k);
      gemm_u8s7(aq, snap.wh_q.padded_k, ascale, nb, snap.wh_q, z, zstride);
      for (std::size_t r = 0; r < nb; ++r) {
        hmax[r] = nn::lstm_cell_row<false, true>(
            z + r * zstride, cbuf + r * h, hbuf + r * h, nullptr, h);
      }
    } else {
      gemm_f32_panels(hbuf, h, z, zstride, nb, snap.wh_panels);
      for (std::size_t r = 0; r < nb; ++r) {
        nn::lstm_cell_row<false>(z + r * zstride, cbuf + r * h, hbuf + r * h,
                                 nullptr, h);
      }
    }
  }

  // Dense(d, relu) then Dense(1, linear): zero → matmul_acc → bias →
  // activation, mirroring Dense::forward.
  std::memset(d1, 0, nb * d * sizeof(float));
  const MatView d1v{d1, nb, d, d};
  tensor::matmul_acc(hv, snap.w1.view(), d1v);
  const float* b1p = snap.b1.data();
  for (std::size_t r = 0; r < nb; ++r) {
    float* row = d1 + r * d;
    for (std::size_t c = 0; c < d; ++c) row[c] += b1p[c];
  }
  for (std::size_t r = 0; r < nb; ++r) {
    float* row = d1 + r * d;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = nn::apply_activation(nn::Activation::kRelu, row[c]);
    }
  }

  std::memset(o2, 0, nb * sizeof(float));
  const MatView o2v{o2, nb, 1, 1};
  tensor::matmul_acc(ConstMatView{d1, nb, d, d}, snap.w2.view(), o2v);
  const float b2s = snap.b2(0, 0);
  for (std::size_t r = 0; r < nb; ++r) out[row_begin + r] = o2[r] + b2s;
}

}  // namespace evfl::forecast
