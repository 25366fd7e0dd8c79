#include "nn/repeat_vector.hpp"

#include <gtest/gtest.h>

namespace evfl::nn {
namespace {

using tensor::Tensor3;

TEST(RepeatVector, TilesAcrossTime) {
  RepeatVector layer(4);
  Tensor3 x(2, 1, 3);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t f = 0; f < 3; ++f) {
      x(n, 0, f) = static_cast<float>(n * 10 + f);
    }
  }
  const Tensor3 y = layer.forward(x, false);
  EXPECT_EQ(y.time(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(y(1, t, 2), 12.0f);
    EXPECT_EQ(y(0, t, 0), 0.0f);
  }
}

TEST(RepeatVector, BackwardSumsOverTime) {
  RepeatVector layer(3);
  Tensor3 x(1, 1, 2);
  layer.forward(x, false);
  Tensor3 g(1, 3, 2);
  g(0, 0, 0) = 1.0f;
  g(0, 1, 0) = 2.0f;
  g(0, 2, 0) = 3.0f;
  g(0, 0, 1) = 0.5f;
  const Tensor3 dx = layer.backward(g, /*input_grad=*/true);
  EXPECT_EQ(dx.time(), 1u);
  EXPECT_FLOAT_EQ(dx(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(dx(0, 0, 1), 0.5f);
}

TEST(RepeatVector, RejectsMultiTimestepInput) {
  RepeatVector layer(3);
  Tensor3 x(1, 2, 2);
  EXPECT_THROW(layer.forward(x, false), Error);
}

TEST(RepeatVector, RejectsWrongBackwardTime) {
  RepeatVector layer(3);
  Tensor3 x(1, 1, 2);
  layer.forward(x, false);
  Tensor3 bad(1, 2, 2);
  EXPECT_THROW(layer.backward(bad, /*input_grad=*/true), Error);
}

TEST(RepeatVector, ZeroRepeatsRejected) {
  EXPECT_THROW(RepeatVector(0), Error);
}

TEST(RepeatVector, StatelessNoParams) {
  RepeatVector layer(2);
  EXPECT_TRUE(layer.params().empty());
  EXPECT_EQ(layer.output_features(5), 5u);
}

}  // namespace
}  // namespace evfl::nn
