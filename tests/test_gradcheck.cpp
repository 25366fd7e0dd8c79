// Numerical gradient verification for every trainable layer, including the
// full LSTM BPTT and the autoencoder stack.  If these pass, the substrate's
// learning dynamics are trustworthy.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/repeat_vector.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

Tensor3 random_tensor(std::size_t n, std::size_t t, std::size_t f, Rng& rng,
                      float scale = 1.0f) {
  Tensor3 x(n, t, f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = scale * rng.normal();
  }
  return x;
}

/// Central-difference check of dLoss/dW against the analytic backward pass.
/// Checks every `stride`-th weight to bound runtime.
void expect_gradients_match(Sequential& model, const Tensor3& x,
                            const Tensor3& y, std::size_t stride = 7,
                            float tol_abs = 2e-3f, float tol_rel = 6e-2f) {
  MseLoss loss;

  model.zero_grads();
  const Tensor3 pred = model.forward(x, /*training=*/false);
  const LossResult lr = loss.value_and_grad(pred, y);
  model.backward(lr.grad, /*input_grad=*/true);

  auto params = model.params();
  std::size_t checked = 0, flat_index = 0;
  for (auto& p : params) {
    for (std::size_t i = 0; i < p.value->size(); ++i, ++flat_index) {
      if (flat_index % stride != 0) continue;
      float& w = p.value->data()[i];
      const float analytic = p.grad->data()[i];

      const float eps = std::max(1e-3f, 1e-2f * std::abs(w));
      const float saved = w;
      w = saved + eps;
      const float lp = loss.value(model.forward(x, false), y);
      w = saved - eps;
      const float lm = loss.value(model.forward(x, false), y);
      w = saved;
      const float numeric = (lp - lm) / (2.0f * eps);

      const float err = std::abs(numeric - analytic);
      const float scale = std::max(std::abs(numeric), std::abs(analytic));
      EXPECT_LE(err, tol_abs + tol_rel * scale)
          << p.name << "[" << i << "]: analytic=" << analytic
          << " numeric=" << numeric;
      ++checked;
    }
  }
  EXPECT_GE(checked, 5u) << "gradient check sampled too few weights";
}

TEST(GradCheck, DenseLinear) {
  Rng rng(1);
  Sequential model;
  model.emplace<Dense>(3, Activation::kLinear, rng, 4);
  const Tensor3 x = random_tensor(5, 1, 4, rng);
  const Tensor3 y = random_tensor(5, 1, 3, rng);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, DenseReluStack) {
  Rng rng(2);
  Sequential model;
  model.emplace<Dense>(8, Activation::kRelu, rng, 4);
  model.emplace<Dense>(1, Activation::kLinear, rng, 8);
  const Tensor3 x = random_tensor(6, 1, 4, rng);
  const Tensor3 y = random_tensor(6, 1, 1, rng);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, DenseTanhSigmoid) {
  Rng rng(3);
  Sequential model;
  model.emplace<Dense>(5, Activation::kTanh, rng, 3);
  model.emplace<Dense>(2, Activation::kSigmoid, rng, 5);
  const Tensor3 x = random_tensor(4, 1, 3, rng);
  const Tensor3 y = random_tensor(4, 1, 2, rng, 0.3f);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, DenseTimeDistributed) {
  Rng rng(4);
  Sequential model;
  model.emplace<Dense>(2, Activation::kTanh, rng, 3);
  const Tensor3 x = random_tensor(3, 6, 3, rng);
  const Tensor3 y = random_tensor(3, 6, 2, rng, 0.5f);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, LstmLastStep) {
  Rng rng(5);
  Sequential model;
  model.emplace<Lstm>(4, /*return_sequences=*/false, rng, 2);
  const Tensor3 x = random_tensor(3, 5, 2, rng);
  const Tensor3 y = random_tensor(3, 1, 4, rng, 0.5f);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, LstmReturnSequences) {
  Rng rng(6);
  Sequential model;
  model.emplace<Lstm>(3, /*return_sequences=*/true, rng, 2);
  const Tensor3 x = random_tensor(2, 6, 2, rng);
  const Tensor3 y = random_tensor(2, 6, 3, rng, 0.5f);
  expect_gradients_match(model, x, y, 1);
}

TEST(GradCheck, LstmWideFusedGateBlocks) {
  // units = 40 makes the fused gate width 4H = 160, which crosses the GEMM
  // kernels' 128-column block boundary.  This drives the LSTM's fused
  // pre-activation / in-place gate-view path through multi-tile blocked
  // matmuls rather than the single-tile fast case the small units above hit.
  Rng rng(12);
  Sequential model;
  model.emplace<Lstm>(40, /*return_sequences=*/false, rng, 2);
  const Tensor3 x = random_tensor(3, 4, 2, rng);
  const Tensor3 y = random_tensor(3, 1, 40, rng, 0.5f);
  expect_gradients_match(model, x, y, 97);
}

TEST(GradCheck, ForecasterArchitecture) {
  // The paper's forecaster shrunk: LSTM(last) -> Dense(relu) -> Dense(1).
  Rng rng(7);
  Sequential model;
  model.emplace<Lstm>(6, /*return_sequences=*/false, rng, 1);
  model.emplace<Dense>(4, Activation::kRelu, rng, 6);
  model.emplace<Dense>(1, Activation::kLinear, rng, 4);
  const Tensor3 x = random_tensor(4, 8, 1, rng);
  const Tensor3 y = random_tensor(4, 1, 1, rng);
  expect_gradients_match(model, x, y, 3);
}

TEST(GradCheck, AutoencoderArchitecture) {
  // The paper's AE shrunk: LSTM(seq) -> LSTM(last) -> RepeatVector ->
  // LSTM(seq) -> LSTM(seq) -> TimeDistributed Dense(1).
  Rng rng(8);
  const std::size_t window = 5;
  Sequential model;
  model.emplace<Lstm>(6, true, rng, 1);
  model.emplace<Lstm>(3, false, rng, 6);
  model.emplace<RepeatVector>(window);
  model.emplace<Lstm>(3, true, rng, 3);
  model.emplace<Lstm>(6, true, rng, 3);
  model.emplace<Dense>(1, Activation::kLinear, rng, 6);
  const Tensor3 x = random_tensor(3, window, 1, rng, 0.5f);
  expect_gradients_match(model, x, x, 5);
}

TEST(GradCheck, StackedLstm) {
  Rng rng(9);
  Sequential model;
  model.emplace<Lstm>(4, true, rng, 2);
  model.emplace<Lstm>(3, false, rng, 4);
  model.emplace<Dense>(1, Activation::kLinear, rng, 3);
  const Tensor3 x = random_tensor(3, 4, 2, rng);
  const Tensor3 y = random_tensor(3, 1, 1, rng);
  expect_gradients_match(model, x, y, 2);
}

TEST(GradCheck, InputGradientDense) {
  // Verify dLoss/dInput as well (needed for correct stacking).
  Rng rng(10);
  Sequential model;
  model.emplace<Dense>(3, Activation::kTanh, rng, 4);
  MseLoss loss;

  Tensor3 x = random_tensor(2, 1, 4, rng);
  const Tensor3 y = random_tensor(2, 1, 3, rng, 0.5f);

  model.zero_grads();
  const LossResult lr = loss.value_and_grad(model.forward(x, false), y);
  const Tensor3 dx = model.backward(lr.grad, /*input_grad=*/true);

  for (std::size_t i = 0; i < x.size(); ++i) {
    const float eps = 1e-3f;
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float lp = loss.value(model.forward(x, false), y);
    x.data()[i] = saved - eps;
    const float lm = loss.value(model.forward(x, false), y);
    x.data()[i] = saved;
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(dx.data()[i], numeric,
                2e-3f + 6e-2f * std::abs(numeric));
  }
}

TEST(GradCheck, InputGradientLstm) {
  Rng rng(11);
  Sequential model;
  model.emplace<Lstm>(3, false, rng, 2);
  MseLoss loss;

  Tensor3 x = random_tensor(2, 4, 2, rng);
  const Tensor3 y = random_tensor(2, 1, 3, rng, 0.5f);

  model.zero_grads();
  const LossResult lr = loss.value_and_grad(model.forward(x, false), y);
  const Tensor3 dx = model.backward(lr.grad, /*input_grad=*/true);

  for (std::size_t i = 0; i < x.size(); ++i) {
    const float eps = 1e-3f;
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float lp = loss.value(model.forward(x, false), y);
    x.data()[i] = saved - eps;
    const float lm = loss.value(model.forward(x, false), y);
    x.data()[i] = saved;
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(dx.data()[i], numeric,
                2e-3f + 6e-2f * std::abs(numeric));
  }
}

}  // namespace
}  // namespace evfl::nn
