#include "nn/optimizer.hpp"

#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace evfl::nn {

namespace {

/// One Adam update of n elements: the moments m, v and the weights w from
/// the gradients g.  The vector lanes write each element's expressions
/// exactly as the scalar tail does, with the same operators in the same
/// order, so the compiler contracts both alike (DESIGN.md §8, "Gate
/// gradients"); square root and divide are correctly rounded in both, so
/// an element gets the same bits in a lane or in the tail.  The 16-lane
/// square root is `_mm512_maskz_sqrt_ps` with every lane enabled:
/// `_mm512_sqrt_ps` passes an undefined vector through, which GCC 12
/// reports as maybe-uninitialized.
void adam_update(float* w, const float* g, float* m, float* v, std::size_t n,
                 float beta1, float beta2, float alpha, float eps) {
  std::size_t i = 0;
#if defined(__AVX512F__)
  const __m512 b1 = _mm512_set1_ps(beta1), c1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 b2 = _mm512_set1_ps(beta2), c2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 a = _mm512_set1_ps(alpha), e = _mm512_set1_ps(eps);
  for (; i + 16 <= n; i += 16) {
    const __m512 gi = _mm512_loadu_ps(g + i);
    const __m512 mi = b1 * _mm512_loadu_ps(m + i) + c1 * gi;
    const __m512 vi = b2 * _mm512_loadu_ps(v + i) + c2 * gi * gi;
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 root = _mm512_maskz_sqrt_ps(0xFFFF, vi);
    _mm512_storeu_ps(w + i, _mm512_loadu_ps(w + i) - a * mi / (root + e));
  }
#elif defined(__AVX2__) && defined(__FMA__)
  const __m256 b1 = _mm256_set1_ps(beta1), c1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 b2 = _mm256_set1_ps(beta2), c2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 a = _mm256_set1_ps(alpha), e = _mm256_set1_ps(eps);
  for (; i + 8 <= n; i += 8) {
    const __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 mi = b1 * _mm256_loadu_ps(m + i) + c1 * gi;
    const __m256 vi = b2 * _mm256_loadu_ps(v + i) + c2 * gi * gi;
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 root = _mm256_sqrt_ps(vi);
    _mm256_storeu_ps(w + i, _mm256_loadu_ps(w + i) - a * mi / (root + e));
  }
#endif
  for (; i < n; ++i) {
    const float gi = g[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    w[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

}  // namespace

Sgd::Sgd(float lr, float momentum) : lr_(lr), momentum_(momentum) {
  EVFL_REQUIRE(lr > 0.0f, "Sgd lr must be positive");
}

void Sgd::step(std::vector<ParamRef>& params) {
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (ParamRef& p : params) {
      velocity_.emplace_back(p.value->rows(), p.value->cols());
    }
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& w = *params[k].value;
    const Matrix& g = *params[k].grad;
    Matrix& vel = velocity_[k];
    for (std::size_t i = 0; i < w.size(); ++i) {
      vel.data()[i] = momentum_ * vel.data()[i] - lr_ * g.data()[i];
      w.data()[i] += vel.data()[i];
    }
  }
}

void Sgd::reset_state() { velocity_.clear(); }

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  EVFL_REQUIRE(lr > 0.0f, "Adam lr must be positive");
}

void Adam::step(std::vector<ParamRef>& params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    t_ = 0;
    for (ParamRef& p : params) {
      m_.emplace_back(p.value->rows(), p.value->cols());
      v_.emplace_back(p.value->rows(), p.value->cols());
    }
  }
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float alpha = lr_ * std::sqrt(bc2) / bc1;

  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& w = *params[k].value;
    const Matrix& g = *params[k].grad;
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    EVFL_ASSERT(w.same_shape(g) && w.same_shape(m),
                "Adam state/param shape drift");
    adam_update(w.data(), g.data(), m.data(), v.data(), w.size(), beta1_,
                beta2_, alpha, eps_);
  }
}

void Adam::reset_state() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

}  // namespace evfl::nn
