#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "tensor/rng.hpp"

namespace evfl::nn {
namespace {

/// A single scalar parameter with a quadratic loss L = (w - target)^2.
struct Quadratic {
  Matrix w{1, 1};
  Matrix g{1, 1};
  float target;

  explicit Quadratic(float start, float tgt) : target(tgt) {
    w(0, 0) = start;
  }

  std::vector<ParamRef> params() { return {{"w", &w, &g}}; }

  void compute_grad() { g(0, 0) = 2.0f * (w(0, 0) - target); }
  float loss() const {
    const float d = w(0, 0) - target;
    return d * d;
  }
};

TEST(Sgd, SingleStepMatchesFormula) {
  Quadratic q(5.0f, 0.0f);
  Sgd opt(0.1f);
  q.compute_grad();  // g = 10
  auto params = q.params();
  opt.step(params);
  EXPECT_NEAR(q.w(0, 0), 5.0f - 0.1f * 10.0f, 1e-6f);
}

TEST(Sgd, ConvergesOnQuadratic) {
  Quadratic q(5.0f, 2.0f);
  Sgd opt(0.1f);
  for (int i = 0; i < 200; ++i) {
    q.compute_grad();
    auto params = q.params();
    opt.step(params);
  }
  EXPECT_NEAR(q.w(0, 0), 2.0f, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Quadratic plain(5.0f, 0.0f), mom(5.0f, 0.0f);
  Sgd opt_plain(0.01f, 0.0f);
  Sgd opt_mom(0.01f, 0.9f);
  for (int i = 0; i < 20; ++i) {
    plain.compute_grad();
    auto pp = plain.params();
    opt_plain.step(pp);
    mom.compute_grad();
    auto pm = mom.params();
    opt_mom.step(pm);
  }
  EXPECT_LT(mom.loss(), plain.loss());
}

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q(5.0f, -1.0f);
  Adam opt(0.1f);
  for (int i = 0; i < 500; ++i) {
    q.compute_grad();
    auto params = q.params();
    opt.step(params);
  }
  EXPECT_NEAR(q.w(0, 0), -1.0f, 1e-2f);
}

TEST(Adam, FirstStepIsBoundedByLr) {
  // Bias correction makes the first Adam step ~lr regardless of grad scale.
  Quadratic q(100.0f, 0.0f);
  Adam opt(0.05f);
  q.compute_grad();  // huge gradient
  auto params = q.params();
  opt.step(params);
  EXPECT_NEAR(q.w(0, 0), 100.0f - 0.05f, 1e-3f);
}

TEST(Adam, StepCountAdvances) {
  Quadratic q(1.0f, 0.0f);
  Adam opt(0.01f);
  EXPECT_EQ(opt.step_count(), 0u);
  q.compute_grad();
  auto params = q.params();
  opt.step(params);
  opt.step(params);
  EXPECT_EQ(opt.step_count(), 2u);
  opt.reset_state();
  EXPECT_EQ(opt.step_count(), 0u);
}

TEST(Adam, InvalidLrRejected) {
  EXPECT_THROW(Adam(0.0f), Error);
  EXPECT_THROW(Sgd(-1.0f), Error);
}

TEST(Adam, StatePersistsAcrossWeightOverwrite) {
  // After set_weights-style replacement the optimizer keeps its moments —
  // document the Keras-matching behaviour the FL layer relies on.
  Quadratic q(5.0f, 0.0f);
  Adam opt(0.1f);
  q.compute_grad();
  auto params = q.params();
  opt.step(params);
  q.w(0, 0) = 5.0f;  // "FedAvg replaced the weights"
  q.compute_grad();
  opt.step(params);
  EXPECT_EQ(opt.step_count(), 2u);  // moments not reset
}

TEST(Adam, VectorStepMatchesScalarReference) {
  // Adam::step runs its element loop 16 or 8 lanes wide (AVX-512, AVX2)
  // with a scalar tail.  Every element must get the bits of the update
  // below, written out one element at a time: sizes below, at and across
  // both widths, 20 steps, with all-zero steps and gradients from 1e-3 to
  // 1e3 in magnitude (exact zeros sprinkled in).
  // Read through volatile, so the reference computes its bias corrections
  // at run time with libm's pow, as Adam::step does (a pow folded at
  // compile time may round differently).
  const volatile float hyper[] = {1e-3f, 0.9f, 0.999f, 1e-7f};
  const float lr = hyper[0], beta1 = hyper[1], beta2 = hyper[2];
  const float eps = hyper[3];
  for (const std::size_t size : {1, 15, 16, 17, 33, 203, 2500}) {
    SCOPED_TRACE("size " + std::to_string(size));
    tensor::Rng rng(100 + size);
    Matrix w(1, size), g(1, size);
    for (std::size_t i = 0; i < size; ++i) w(0, i) = rng.normal();
    std::vector<float> ref_w(w.data(), w.data() + size);
    std::vector<float> ref_m(size, 0.0f), ref_v(size, 0.0f);
    Adam opt(lr, beta1, beta2, eps);
    std::vector<ParamRef> params{{"w", &w, &g}};
    for (std::size_t t = 1; t <= 20; ++t) {
      for (std::size_t i = 0; i < size; ++i) {
        const float mag = std::pow(10.0f, rng.uniform(-3.0f, 3.0f));
        g(0, i) = t % 5 == 0 || i % 7 == 3
                      ? 0.0f
                      : (rng.uniform(0.0f, 1.0f) < 0.5f ? -mag : mag);
      }
      opt.step(params);

      const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
      const float alpha = lr * std::sqrt(bc2) / bc1;
      for (std::size_t i = 0; i < size; ++i) {
        const float gi = g(0, i);
        ref_m[i] = beta1 * ref_m[i] + (1.0f - beta1) * gi;
        ref_v[i] = beta2 * ref_v[i] + (1.0f - beta2) * gi * gi;
        ref_w[i] -= alpha * ref_m[i] / (std::sqrt(ref_v[i]) + eps);
      }
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(w(0, i), ref_w[i]) << "element " << i << ", step " << t;
      }
    }
  }
}

}  // namespace
}  // namespace evfl::nn
