#include "nn/lstm.hpp"

#include "nn/lstm_kernels.hpp"
#include "tensor/init.hpp"

namespace evfl::nn {

namespace {

/// dst = srcᵀ, in dst's storage when srcᵀ fits in it.
void transpose_into(const Matrix& src, Matrix& dst) {
  dst.reshape(src.cols(), src.rows());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const float* row = src.row(r);
    for (std::size_t c = 0; c < src.cols(); ++c) dst(c, r) = row[c];
  }
}

/// One row of an LSTM step's gate gradients, from the row's activated
/// gates z = [i | f | g | o], c_prev, tanh(c) and dh:
///   dc = dh·o·(1 − tanh²c) + dc_next
///   dZ = [dc·g·i·(1 − i) | dc·c_prev·f·(1 − f) | dc·i·(1 − g²) |
///         dh·tanh(c)·o·(1 − o)]
/// and `dc` (dc_next on entry) leaves holding dc·f, the next step's
/// dc_next.  The 16- and 8-wide lanes write each element's expression
/// exactly as the scalar tail does, with the same operators in the same
/// order, so the compiler fuses the same multiply-adds in all three (a
/// Release build contracts a·b + c into an FMA, a build without FMA
/// cannot) and a column gets the same bits whether it lands in a lane
/// group or in the tail.
void lstm_grad_row(const float* z, const float* cp, const float* ct,
                   const float* dh, float* dc, float* dz, std::size_t h) {
  std::size_t k = 0;
#if defined(__AVX512F__)
  const __m512 one16 = _mm512_set1_ps(1.0f);
  for (; k + 16 <= h; k += 16) {
    const __m512 i = _mm512_loadu_ps(z + k);
    const __m512 f = _mm512_loadu_ps(z + h + k);
    const __m512 g = _mm512_loadu_ps(z + 2 * h + k);
    const __m512 o = _mm512_loadu_ps(z + 3 * h + k);
    const __m512 c = _mm512_loadu_ps(cp + k);
    const __m512 t = _mm512_loadu_ps(ct + k);
    const __m512 d = _mm512_loadu_ps(dh + k);
    const __m512 dck = d * o * (one16 - t * t) + _mm512_loadu_ps(dc + k);
    _mm512_storeu_ps(dz + k, dck * g * i * (one16 - i));
    _mm512_storeu_ps(dz + h + k, dck * c * f * (one16 - f));
    _mm512_storeu_ps(dz + 2 * h + k, dck * i * (one16 - g * g));
    _mm512_storeu_ps(dz + 3 * h + k, d * t * o * (one16 - o));
    _mm512_storeu_ps(dc + k, dck * f);
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  const __m256 one = _mm256_set1_ps(1.0f);
  for (; k + 8 <= h; k += 8) {
    const __m256 i = _mm256_loadu_ps(z + k);
    const __m256 f = _mm256_loadu_ps(z + h + k);
    const __m256 g = _mm256_loadu_ps(z + 2 * h + k);
    const __m256 o = _mm256_loadu_ps(z + 3 * h + k);
    const __m256 c = _mm256_loadu_ps(cp + k);
    const __m256 t = _mm256_loadu_ps(ct + k);
    const __m256 d = _mm256_loadu_ps(dh + k);
    const __m256 dck = d * o * (one - t * t) + _mm256_loadu_ps(dc + k);
    _mm256_storeu_ps(dz + k, dck * g * i * (one - i));
    _mm256_storeu_ps(dz + h + k, dck * c * f * (one - f));
    _mm256_storeu_ps(dz + 2 * h + k, dck * i * (one - g * g));
    _mm256_storeu_ps(dz + 3 * h + k, d * t * o * (one - o));
    _mm256_storeu_ps(dc + k, dck * f);
  }
#endif
  for (; k < h; ++k) {
    const float i = z[k], f = z[h + k], g = z[2 * h + k], o = z[3 * h + k];
    const float t = ct[k];
    const float dck = dh[k] * o * (1.0f - t * t) + dc[k];
    dz[k] = dck * g * i * (1.0f - i);
    dz[h + k] = dck * cp[k] * f * (1.0f - f);
    dz[2 * h + k] = dck * i * (1.0f - g * g);
    dz[3 * h + k] = dh[k] * t * o * (1.0f - o);
    dc[k] = dck * f;
  }
}

}  // namespace

Lstm::Lstm(std::size_t units, bool return_sequences, Rng& rng,
           std::size_t input_features)
    : units_(units), return_sequences_(return_sequences), rng_(&rng) {
  EVFL_REQUIRE(units > 0, "Lstm needs units > 0");
  if (input_features > 0) ensure_built(input_features);
}

void Lstm::ensure_built(std::size_t input_features) {
  if (!wx_.empty()) {
    if (wx_.rows() != input_features) {
      throw ShapeError("Lstm built for " + std::to_string(wx_.rows()) +
                       " inputs, got " + std::to_string(input_features));
    }
    return;
  }
  const std::size_t h = units_;
  wx_ = tensor::glorot_uniform(input_features, 4 * h, *rng_);
  // Per-gate orthogonal recurrent kernel.
  wh_ = Matrix(h, 4 * h);
  for (std::size_t g = 0; g < 4; ++g) {
    const Matrix block = tensor::orthogonal(h, h, *rng_);
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < h; ++c) wh_(r, g * h + c) = block(r, c);
    }
  }
  b_ = Matrix(1, 4 * h);
  for (std::size_t c = 0; c < h; ++c) b_(0, h + c) = 1.0f;  // forget bias

  gwx_ = Matrix(input_features, 4 * h);
  gwh_ = Matrix(h, 4 * h);
  gb_ = Matrix(1, 4 * h);
}

Tensor3 Lstm::forward(const Tensor3& input, bool /*training*/) {
  ensure_built(input.features());
  const std::size_t n = input.batch(), t_len = input.time(), h = units_;
  const std::size_t in = input.features();
  EVFL_REQUIRE(t_len > 0, "Lstm forward needs time >= 1");
  if (cached_n_ != n || cached_t_ != t_len || cached_in_ != in) {
    cache_.resize(t_len);
    for (StepCache& sc : cache_) {
      sc.x.reshape(n, in);
      sc.h.reshape(n, h);
      sc.c.reshape(n, h);
      sc.z.reshape(n, 4 * h);
      sc.c_tanh.reshape(n, h);
    }
    zero_state_.reshape(n, h);
    zero_state_.set_zero();
    cached_n_ = n;
    cached_t_ = t_len;
    cached_in_ = in;
  }
  Tensor3 out_seq(n, return_sequences_ ? t_len : 1, h);

  for (std::size_t t = 0; t < t_len; ++t) {
    StepCache& sc = cache_[t];
    // Step t − 1's cache holds this step's h_prev and c_prev.  Step 0 runs
    // its h·Wh product on the zero block rather than skipping it, so its
    // zeros keep the signs and a non-finite weight the NaN the product
    // gives.
    const Matrix& h_prev = t > 0 ? cache_[t - 1].h : zero_state_;
    const Matrix& c_prev = t > 0 ? cache_[t - 1].c : zero_state_;
    input.copy_timestep_into(t, sc.x);

    // Fused pre-activation Z = b + x·Wx + h·Wh: each element starts from
    // its bias and accumulates by FMA in ascending k (tensor/matrix.hpp),
    // through the z-init the serving engine runs too.
    fused_init_z(sc.z.data(), 4 * h, sc.x.data(), in, n, in, b_.data(),
                 wx_.data(), 4 * h);
    matmul_acc(h_prev, wh_, sc.z);

    // Gates activated in place ([i | f | g | o] blocks of z, stride 4H),
    // c = f ⊙ c_prev + i ⊙ g, h = o ⊙ tanh(c), tanh(c) kept for BPTT —
    // the serving engine's row loop, so both paths produce the same bits.
    lstm_cell_rows<true>(sc.z.data(), 4 * h, c_prev.data(), sc.c.data(),
                         sc.h.data(), sc.c_tanh.data(), h, n);

    if (return_sequences_) {
      out_seq.set_timestep(t, sc.h);
    }
  }
  if (!return_sequences_) {
    out_seq.set_timestep(0, cache_[t_len - 1].h);
  }
  return out_seq;
}

Tensor3 Lstm::backward(const Tensor3& grad_output, bool input_grad) {
  EVFL_ASSERT(!cache_.empty(), "Lstm::backward before forward");
  const std::size_t n = cached_n_, t_len = cached_t_, h = units_;
  if (return_sequences_) {
    EVFL_REQUIRE(grad_output.batch() == n && grad_output.time() == t_len &&
                     grad_output.features() == h,
                 "Lstm backward grad shape mismatch (sequences)");
  } else {
    EVFL_REQUIRE(grad_output.batch() == n && grad_output.time() == 1 &&
                     grad_output.features() == h,
                 "Lstm backward grad shape mismatch (last step)");
  }

  // Without `input_grad` nothing below builds dx: no dx tensor, no Wxᵀ
  // pack and no dZ·Wxᵀ product per step.  The parameter gradients never
  // read dx, so their bits do not change.
  Tensor3 dx;
  if (input_grad) {
    dx = Tensor3(n, t_len, cached_in_);
    bwd_dx_step_.reshape(n, cached_in_);
  }
  bwd_dh_.reshape(n, h);        // dh_t: dZ·Whᵀ from step t+1, + grads
  bwd_dc_next_.reshape(n, h);   // dL/dc_t flowing from step t+1
  bwd_dz_.reshape(n, 4 * h);
  bwd_dh_.set_zero();
  bwd_dc_next_.set_zero();
  // Every step below multiplies dZ by Wxᵀ and Whᵀ, so both are packed
  // once per call here rather than by matmul_nt_acc on every step.  The
  // layout is the one matmul_nt_acc packs, so the bits are the same.
  if (input_grad) transpose_into(wx_, bwd_wxt_);
  transpose_into(wh_, bwd_wht_);

  for (std::size_t ti = t_len; ti-- > 0;) {
    const StepCache& sc = cache_[ti];
    const Matrix& h_prev = ti > 0 ? cache_[ti - 1].h : zero_state_;
    const Matrix& c_prev = ti > 0 ? cache_[ti - 1].c : zero_state_;

    // dh = dh_next + incoming grad for this step (bwd_dh_ already holds
    // dZ·Whᵀ from the step above; the last step starts from zero).
    if (return_sequences_ || ti == t_len - 1) {
      const std::size_t got = return_sequences_ ? ti : 0;
      for (std::size_t r = 0; r < n; ++r) {
        const float* src =
            grad_output.data() + (r * grad_output.time() + got) * h;
        float* dst = bwd_dh_.row(r);
        for (std::size_t c = 0; c < h; ++c) dst[c] += src[c];
      }
    }

    // dc and the gate pre-activation gradients, written straight into the
    // fused dZ [N, 4H] blocks; bwd_dc_next_ turns into dc ⊙ f on the way.
    for (std::size_t r = 0; r < n; ++r) {
      lstm_grad_row(sc.z.row(r), c_prev.row(r), sc.c_tanh.row(r),
                    bwd_dh_.row(r), bwd_dc_next_.row(r), bwd_dz_.row(r), h);
    }

    matmul_tn_acc(sc.x, bwd_dz_, gwx_);    // gWx += xᵀ · dZ
    matmul_tn_acc(h_prev, bwd_dz_, gwh_);  // gWh += h_prevᵀ · dZ
    bwd_dz_.col_sums_into(bwd_col_sums_);
    gb_ += bwd_col_sums_;

    if (input_grad) {
      bwd_dx_step_.set_zero();
      matmul_acc(bwd_dz_, bwd_wxt_, bwd_dx_step_);  // dx_t = dZ · Wxᵀ
      dx.set_timestep(ti, bwd_dx_step_);
    }

    if (ti > 0) {  // the first step's dh_prev feeds no earlier step
      bwd_dh_.set_zero();
      matmul_acc(bwd_dz_, bwd_wht_, bwd_dh_);  // dh_prev = dZ · Whᵀ
    }
  }
  return dx;
}

std::vector<const float*> Lstm::cache_storage() const {
  std::vector<const float*> out;
  for (const StepCache& sc : cache_) {
    for (const Matrix* m : {&sc.x, &sc.h, &sc.c, &sc.z, &sc.c_tanh}) {
      out.push_back(m->data());
    }
  }
  return out;
}

std::vector<ParamRef> Lstm::params() {
  EVFL_ASSERT(!wx_.empty(), "Lstm::params before build");
  return {{"lstm.wx", &wx_, &gwx_},
          {"lstm.wh", &wh_, &gwh_},
          {"lstm.b", &b_, &gb_}};
}

std::size_t Lstm::output_features(std::size_t /*input_features*/) const {
  return units_;
}

std::string Lstm::name() const {
  return "Lstm(" + std::to_string(units_) +
         (return_sequences_ ? ", seq" : ", last") + ")";
}

}  // namespace evfl::nn
