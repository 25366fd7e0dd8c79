#include <gtest/gtest.h>

#include <limits>

#include "fl/client.hpp"
#include "fl/server.hpp"
#include "nn/dense.hpp"

namespace evfl::fl {
namespace {

using tensor::Rng;
using tensor::Tensor3;

ModelFactory linear_factory() {
  return [](Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
}

/// y = slope * x data on [-1, 1].
void make_data(Tensor3& x, Tensor3& y, float slope, std::size_t n,
               std::uint64_t seed) {
  Rng rng(seed);
  x = Tensor3(n, 1, 1);
  y = Tensor3(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = rng.uniform(-1.0f, 1.0f);
    x(i, 0, 0) = xi;
    y(i, 0, 0) = slope * xi;
  }
}

TEST(Client, RequiresData) {
  ClientConfig cfg;
  EXPECT_THROW(Client(0, Tensor3(0, 1, 1), Tensor3(0, 1, 1), linear_factory(),
                      cfg, Rng(1)),
               Error);
  EXPECT_THROW(Client(0, Tensor3(4, 1, 1), Tensor3(3, 1, 1), linear_factory(),
                      cfg, Rng(1)),
               Error);
}

TEST(Client, TrainRoundAdoptsGlobalAndImproves) {
  Tensor3 x, y;
  make_data(x, y, 2.0f, 128, 1);
  ClientConfig cfg;
  cfg.epochs_per_round = 20;
  cfg.learning_rate = 0.05f;
  Client client(0, x, y, linear_factory(), cfg, Rng(2));
  EXPECT_EQ(client.sample_count(), 128u);

  GlobalModel global;
  global.round = 0;
  global.weights = {0.0f, 0.0f};  // start from zero
  const WeightUpdate u = client.train_round(global);
  EXPECT_EQ(u.client_id, 0);
  EXPECT_EQ(u.round, 0u);
  EXPECT_EQ(u.sample_count, 128u);
  ASSERT_EQ(u.weights.size(), 2u);
  // Should have moved towards slope 2, bias 0.
  EXPECT_NEAR(u.weights[0], 2.0f, 0.5f);
  EXPECT_NEAR(u.weights[1], 0.0f, 0.3f);
  // As a participant, the client reports its round's training seconds.
  global.round = 1;
  EXPECT_GT(client.participate(global, StepOptions{}).seconds, 0.0);
}

TEST(Server, BroadcastCarriesRoundAndWeights) {
  Server server({1.0f, 2.0f});
  const GlobalModel g = server.broadcast();
  EXPECT_EQ(g.round, 0u);
  EXPECT_EQ(g.weights, (std::vector<float>{1.0f, 2.0f}));
}

TEST(Server, FinishRoundAggregatesAndAdvances) {
  Server server({0.0f});
  WeightUpdate u;
  u.client_id = 0;
  u.sample_count = 10;
  u.weights = {4.0f};
  const double delta = server.finish_round({u});
  EXPECT_EQ(server.round(), 1u);
  EXPECT_FLOAT_EQ(server.weights()[0], 4.0f);
  EXPECT_DOUBLE_EQ(delta, 4.0);
}

TEST(Server, EmptyRoundKeepsWeights) {
  Server server({3.0f});
  const double delta = server.finish_round({});
  EXPECT_EQ(server.round(), 1u);
  EXPECT_FLOAT_EQ(server.weights()[0], 3.0f);
  EXPECT_EQ(delta, 0.0);
}

TEST(Server, AllRejectedRoundKeepsWeightsAndAdvancesRound) {
  // Every arrival is non-finite: the validator rejects them all, the global
  // weights stay untouched, and the round counter still advances so the
  // protocol makes progress instead of wedging on a poisoned round.
  Server server({1.5f, -2.5f});
  const std::vector<float> before = server.weights();

  WeightUpdate nan_update;
  nan_update.client_id = 0;
  nan_update.round = 0;
  nan_update.sample_count = 8;
  nan_update.weights = {std::numeric_limits<float>::quiet_NaN(), 1.0f};
  WeightUpdate inf_update;
  inf_update.client_id = 1;
  inf_update.round = 0;
  inf_update.sample_count = 8;
  inf_update.weights = {0.0f, std::numeric_limits<float>::infinity()};

  const double delta = server.finish_round({nan_update, inf_update});
  EXPECT_EQ(delta, 0.0);
  EXPECT_EQ(server.weights(), before);
  EXPECT_EQ(server.round(), 1u);
  EXPECT_EQ(server.last_audit().rejected_nonfinite, 2u);
  EXPECT_EQ(server.last_audit().accepted, 0u);
}

TEST(Server, RejectsDimensionMismatch) {
  // A wrong-dimension payload is Byzantine input like any other: the round
  // degrades (update rejected, weights unchanged) — the server never aborts.
  Server server({1.0f, 2.0f});
  WeightUpdate u;
  u.sample_count = 1;
  u.weights = {1.0f};
  const double delta = server.finish_round({u});
  EXPECT_EQ(delta, 0.0);
  EXPECT_EQ(server.weights(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(server.round(), 1u);
  EXPECT_EQ(server.last_audit().rejected_dimension, 1u);
  EXPECT_THROW(Server({}), Error);
}

}  // namespace
}  // namespace evfl::fl
