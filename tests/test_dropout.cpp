#include "nn/dropout.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

Tensor3 ones(std::size_t n, std::size_t t, std::size_t f) {
  Tensor3 x(n, t, f);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 1.0f;
  return x;
}

TEST(Dropout, EvalModeIsIdentity) {
  Rng rng(1);
  Dropout layer(0.5f, rng);
  const Tensor3 x = ones(4, 3, 2);
  const Tensor3 y = layer.forward(x, /*training=*/false);
  EXPECT_LT(tensor::max_abs_diff(x, y), 1e-7f);
}

TEST(Dropout, RateZeroIsIdentityEvenTraining) {
  Rng rng(2);
  Dropout layer(0.0f, rng);
  const Tensor3 x = ones(4, 3, 2);
  const Tensor3 y = layer.forward(x, true);
  EXPECT_LT(tensor::max_abs_diff(x, y), 1e-7f);
}

TEST(Dropout, TrainingZeroesApproximatelyRateFraction) {
  Rng rng(3);
  Dropout layer(0.2f, rng);
  const Tensor3 x = ones(100, 10, 10);  // 10k elements
  const Tensor3 y = layer.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) zeros += (y.data()[i] == 0.0f);
  const double frac = static_cast<double>(zeros) / y.size();
  EXPECT_NEAR(frac, 0.2, 0.02);
}

TEST(Dropout, SurvivorsScaledByInverseKeep) {
  Rng rng(4);
  Dropout layer(0.25f, rng);
  const Tensor3 x = ones(10, 10, 10);
  const Tensor3 y = layer.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] != 0.0f) {
      EXPECT_NEAR(y.data()[i], 1.0f / 0.75f, 1e-5f);
    }
  }
}

TEST(Dropout, ExpectationPreserved) {
  Rng rng(5);
  Dropout layer(0.3f, rng);
  const Tensor3 x = ones(100, 10, 10);
  const Tensor3 y = layer.forward(x, true);
  EXPECT_NEAR(y.sum() / static_cast<float>(y.size()), 1.0f, 0.05f);
}

TEST(Dropout, MaskMatchesPerElementBernoulli) {
  // The layer draws its keep decisions in blocks and compares each draw
  // with one threshold; that must be exactly one Rng::bernoulli(1 - rate)
  // per element, in element order, consuming the same draws.  The
  // equivalence rests on how the standard library turns a draw into a
  // bernoulli_distribution decision, so this fails on a library that
  // computes it differently.  429 elements = 6 whole 64-draw blocks plus
  // 45, and the second forward reuses the mask's storage.
  for (const float rate : {0.2f, 0.25f, 0.5f, 1e-7f, 0.9999f}) {
    Rng rng(11), ref(11);
    Dropout layer(rate, rng);
    const float scale = 1.0f / (1.0f - rate);
    for (int call = 0; call < 2; ++call) {
      const Tensor3 y = layer.forward(ones(13, 11, 3), true);
      for (std::size_t i = 0; i < y.size(); ++i) {
        const float want = ref.bernoulli(1.0 - layer.rate()) ? scale : 0.0f;
        ASSERT_EQ(y.data()[i], want)
            << "rate " << rate << " call " << call << " element " << i;
      }
      EXPECT_EQ(rng.engine()(), ref.engine()())
          << "rate " << rate << " call " << call;
    }
  }
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(6);
  Dropout layer(0.5f, rng);
  const Tensor3 x = ones(8, 4, 4);
  const Tensor3 y = layer.forward(x, true);
  const Tensor3 dx = layer.backward(ones(8, 4, 4), /*input_grad=*/true);
  // Gradient must be zero exactly where the activation was dropped and
  // scaled identically where kept.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(dx.data()[i], y.data()[i]);
  }
}

TEST(Dropout, BackwardAfterEvalForwardIsIdentity) {
  Rng rng(7);
  Dropout layer(0.5f, rng);
  layer.forward(ones(2, 2, 2), false);
  const Tensor3 g = ones(2, 2, 2);
  const Tensor3 dx = layer.backward(g, /*input_grad=*/true);
  EXPECT_LT(tensor::max_abs_diff(g, dx), 1e-7f);
}

TEST(Dropout, InvalidRateRejected) {
  Rng rng(8);
  EXPECT_THROW(Dropout(1.0f, rng), Error);
  EXPECT_THROW(Dropout(-0.1f, rng), Error);
}

TEST(Dropout, HasNoParams) {
  Rng rng(9);
  Dropout layer(0.2f, rng);
  EXPECT_TRUE(layer.params().empty());
}

}  // namespace
}  // namespace evfl::nn
