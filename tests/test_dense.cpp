#include "nn/dense.hpp"

#include <gtest/gtest.h>

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense layer(2, Activation::kLinear, rng, 3);
  // Overwrite weights with known values: y = x·W + b.
  auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  Matrix& w = *params[0].value;
  Matrix& b = *params[1].value;
  w = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  b = Matrix::row_vector({10, 20});

  Tensor3 x(1, 1, 3);
  x(0, 0, 0) = 1;
  x(0, 0, 1) = 2;
  x(0, 0, 2) = 3;
  const Tensor3 y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y(0, 0, 1), 2 + 3 + 20);
}

TEST(Dense, ReluClampsNegative) {
  Rng rng(2);
  Dense layer(1, Activation::kRelu, rng, 1);
  auto params = layer.params();
  *params[0].value = Matrix::from_rows({{1.0f}});
  *params[1].value = Matrix::row_vector({-5.0f});
  Tensor3 x(1, 1, 1);
  x(0, 0, 0) = 2.0f;  // pre-activation = -3
  EXPECT_EQ(layer.forward(x, false)(0, 0, 0), 0.0f);
}

TEST(Dense, TimeDistributedAppliesPerStep) {
  Rng rng(3);
  Dense layer(2, Activation::kLinear, rng, 1);
  Tensor3 x(2, 3, 1);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t t = 0; t < 3; ++t) {
      x(n, t, 0) = static_cast<float>(n * 3 + t);
    }
  }
  const Tensor3 y = layer.forward(x, false);
  EXPECT_EQ(y.batch(), 2u);
  EXPECT_EQ(y.time(), 3u);
  EXPECT_EQ(y.features(), 2u);
  // Same input value -> same output regardless of position.
  Tensor3 x2(1, 1, 1);
  x2(0, 0, 0) = x(1, 2, 0);
  const Tensor3 y2 = layer.forward(x2, false);
  EXPECT_FLOAT_EQ(y(1, 2, 0), y2(0, 0, 0));
  EXPECT_FLOAT_EQ(y(1, 2, 1), y2(0, 0, 1));
}

TEST(Dense, LazyBuildInfersInputWidth) {
  Rng rng(4);
  Dense layer(3, Activation::kLinear, rng);  // no input size yet
  Tensor3 x(2, 1, 5);
  layer.forward(x, false);
  EXPECT_EQ(layer.weights().rows(), 5u);
  EXPECT_EQ(layer.weights().cols(), 3u);
}

TEST(Dense, RejectsChangedInputWidth) {
  Rng rng(5);
  Dense layer(3, Activation::kLinear, rng, 4);
  Tensor3 bad(2, 1, 7);
  EXPECT_THROW(layer.forward(bad, false), ShapeError);
}

TEST(Dense, OutputFeatures) {
  Rng rng(6);
  Dense layer(9, Activation::kLinear, rng, 4);
  EXPECT_EQ(layer.output_features(4), 9u);
}

TEST(Dense, GradAccumulatesAcrossBackwards) {
  Rng rng(7);
  Dense layer(1, Activation::kLinear, rng, 1);
  Tensor3 x(1, 1, 1);
  x(0, 0, 0) = 1.0f;
  Tensor3 g(1, 1, 1);
  g(0, 0, 0) = 1.0f;

  layer.forward(x, true);
  layer.backward(g, /*input_grad=*/true);
  const float after_one = layer.params()[0].grad->data()[0];
  layer.forward(x, true);
  layer.backward(g, /*input_grad=*/true);
  const float after_two = layer.params()[0].grad->data()[0];
  EXPECT_FLOAT_EQ(after_two, 2.0f * after_one);

  layer.zero_grads();
  EXPECT_FLOAT_EQ(layer.params()[0].grad->data()[0], 0.0f);
}

TEST(Dense, BackwardShapeMismatchThrows) {
  Rng rng(8);
  Dense layer(2, Activation::kLinear, rng, 3);
  Tensor3 x(2, 1, 3);
  layer.forward(x, false);
  Tensor3 bad_grad(2, 1, 5);
  EXPECT_THROW(layer.backward(bad_grad, /*input_grad=*/true), ShapeError);
}

TEST(Dense, ZeroUnitsRejected) {
  Rng rng(9);
  EXPECT_THROW(Dense(0, Activation::kLinear, rng), Error);
}

}  // namespace
}  // namespace evfl::nn
