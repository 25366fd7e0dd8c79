#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "forecast/model.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/lstm.hpp"

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

Sequential small_model(Rng& rng) {
  Sequential m;
  m.emplace<Lstm>(4, false, rng, 1);
  m.emplace<Dense>(3, Activation::kRelu, rng, 4);
  m.emplace<Dense>(1, Activation::kLinear, rng, 3);
  return m;
}

TEST(Sequential, ForwardThroughStack) {
  Rng rng(1);
  Sequential m = small_model(rng);
  Tensor3 x(2, 5, 1);
  const Tensor3 y = m.forward(x, false);
  EXPECT_EQ(y.batch(), 2u);
  EXPECT_EQ(y.time(), 1u);
  EXPECT_EQ(y.features(), 1u);
}

TEST(Sequential, EmptyModelRejected) {
  Sequential m;
  Tensor3 x(1, 1, 1);
  EXPECT_THROW(m.forward(x, false), Error);
}

TEST(Sequential, WeightCountMatchesFormula) {
  Rng rng(2);
  Sequential m = small_model(rng);
  // LSTM: 1*16 + 4*16 + 16 = 96; Dense1: 4*3+3 = 15; Dense2: 3*1+1 = 4.
  EXPECT_EQ(m.weight_count(), 96u + 15u + 4u);
}

TEST(Sequential, GetSetWeightsRoundTrip) {
  Rng rng(3);
  Sequential a = small_model(rng);
  Rng rng2(4);
  Sequential b = small_model(rng2);

  Tensor3 x(3, 5, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.1f * i;

  const Tensor3 ya_before = a.forward(x, false);
  const Tensor3 yb_before = b.forward(x, false);
  EXPECT_GT(tensor::max_abs_diff(ya_before, yb_before), 1e-6f);

  b.set_weights(a.get_weights());
  const Tensor3 yb_after = b.forward(x, false);
  EXPECT_LT(tensor::max_abs_diff(ya_before, yb_after), 1e-7f);
}

TEST(Sequential, SetWeightsWrongSizeThrows) {
  Rng rng(5);
  Sequential m = small_model(rng);
  std::vector<float> too_short(m.weight_count() - 1, 0.0f);
  EXPECT_THROW(m.set_weights(too_short), Error);
  std::vector<float> too_long(m.weight_count() + 1, 0.0f);
  EXPECT_THROW(m.set_weights(too_long), Error);
}

TEST(Sequential, GradsHaveSameLayoutAsWeights) {
  Rng rng(6);
  Sequential m = small_model(rng);
  EXPECT_EQ(m.get_grads().size(), m.get_weights().size());
}

TEST(Sequential, ZeroGradsClearsAll) {
  Rng rng(7);
  Sequential m = small_model(rng);
  Tensor3 x(2, 5, 1);
  Tensor3 g(2, 1, 1);
  g(0, 0, 0) = 1.0f;
  m.forward(x, true);
  m.backward(g, /*input_grad=*/true);
  bool any_nonzero = false;
  for (float v : m.get_grads()) any_nonzero |= (v != 0.0f);
  EXPECT_TRUE(any_nonzero);
  m.zero_grads();
  for (float v : m.get_grads()) EXPECT_EQ(v, 0.0f);
}

/// One forward, then a full backward and one without the input gradient:
/// every parameter gradient must be bit-equal, and only the full one may
/// return dLoss/dInput.
void expect_input_grad_skip_keeps_param_grads(Sequential& m, const Tensor3& x,
                                              const Tensor3& g) {
  m.forward(x, /*training=*/true);
  m.zero_grads();
  const Tensor3 dx = m.backward(g, /*input_grad=*/true);
  EXPECT_TRUE(dx.same_shape(x));
  const std::vector<float> full = m.get_grads();
  m.zero_grads();
  const Tensor3 skipped = m.backward(g, /*input_grad=*/false);
  EXPECT_TRUE(skipped.empty());
  EXPECT_EQ(m.get_grads(), full);  // bit-equal, not approximately equal
}

TEST(Sequential, BackwardWithoutInputGradKeepsParamGrads) {
  Rng rng(11);
  Rng data(12);
  {
    SCOPED_TRACE("LSTM first: the paper's forecaster");
    Sequential m = forecast::make_forecaster(forecast::ForecasterConfig{}, rng);
    Tensor3 x(32, 24, 1), g(32, 1, 1);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data.uniform(0, 1);
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = data.normal();
    expect_input_grad_skip_keeps_param_grads(m, x, g);
  }
  {
    SCOPED_TRACE("Dense first, then Dropout, an LSTM and a Dense");
    Sequential m;
    m.emplace<Dense>(6, Activation::kRelu, rng, 3);
    m.emplace<Dropout>(0.25f, rng);
    m.emplace<Lstm>(5, /*return_sequences=*/true, rng, 6);
    m.emplace<Dense>(1, Activation::kLinear, rng, 5);
    Tensor3 x(9, 7, 3), g(9, 7, 1);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data.normal();
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = data.normal();
    expect_input_grad_skip_keeps_param_grads(m, x, g);
  }
}

TEST(Sequential, SummaryMentionsLayersAndParams) {
  Rng rng(8);
  Sequential m = small_model(rng);
  const std::string s = m.summary();
  EXPECT_NE(s.find("Lstm(4"), std::string::npos);
  EXPECT_NE(s.find("Dense(3"), std::string::npos);
  EXPECT_NE(s.find("total params: 115"), std::string::npos);
}

TEST(Sequential, SaveLoadWeightsRoundTrip) {
  const std::string path = ::testing::TempDir() + "/evfl_weights.bin";
  Rng rng(10);
  Sequential a = small_model(rng);
  a.save_weights(path);

  Rng rng2(11);
  Sequential b = small_model(rng2);
  b.load_weights(path);
  EXPECT_EQ(a.get_weights(), b.get_weights());
}

TEST(Sequential, LoadWeightsRejectsWrongModel) {
  const std::string path = ::testing::TempDir() + "/evfl_weights2.bin";
  Rng rng(12);
  Sequential a = small_model(rng);
  a.save_weights(path);

  Sequential other;
  Rng rng3(13);
  other.emplace<Dense>(2, Activation::kLinear, rng3, 2);
  EXPECT_THROW(other.load_weights(path), FormatError);
}

TEST(Sequential, LoadWeightsDetectsCorruption) {
  const std::string path = ::testing::TempDir() + "/evfl_weights3.bin";
  Rng rng(14);
  Sequential a = small_model(rng);
  a.save_weights(path);
  // Flip one payload byte.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  Rng rng2(15);
  Sequential b = small_model(rng2);
  EXPECT_THROW(b.load_weights(path), FormatError);
  EXPECT_THROW(b.load_weights("/nonexistent/w.bin"), Error);
}

TEST(Sequential, AddNullLayerRejected) {
  Sequential m;
  EXPECT_THROW(m.add(nullptr), Error);
}

TEST(Sequential, LayerAccess) {
  Rng rng(9);
  Sequential m = small_model(rng);
  EXPECT_EQ(m.layer_count(), 3u);
  EXPECT_EQ(m.layer(0).name(), "Lstm(4, last)");
}

}  // namespace
}  // namespace evfl::nn
