#include "fl/driver.hpp"

#include <gtest/gtest.h>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
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

/// Heterogeneous linear clients: slopes 1, 2, 3 — FedAvg should land the
/// global slope near the (sample-weighted) middle.
std::vector<std::unique_ptr<Client>> make_clients(std::size_t n_per_client,
                                                  std::uint64_t seed) {
  std::vector<std::unique_ptr<Client>> clients;
  Rng root(seed);
  for (int c = 0; c < 3; ++c) {
    Tensor3 x(n_per_client, 1, 1), y(n_per_client, 1, 1);
    Rng data_rng = root.split();
    for (std::size_t i = 0; i < n_per_client; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = static_cast<float>(c + 1) * xi;
    }
    ClientConfig cfg;
    cfg.epochs_per_round = 10;
    cfg.learning_rate = 0.05f;
    cfg.batch_size = 16;
    clients.push_back(std::make_unique<Client>(c, x, y, linear_factory(), cfg,
                                               root.split()));
  }
  return clients;
}

TEST(SyncDriver, RunsRoundsAndConverges) {
  auto clients = make_clients(64, 1);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  SyncDriver driver(server, clients, net);
  const FederatedRunResult result = driver.run(4);

  ASSERT_EQ(result.rounds.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(result.rounds[r].round, r);
    EXPECT_EQ(result.rounds[r].updates_received, 3u);
    EXPECT_GT(result.rounds[r].max_client_seconds, 0.0);
  }
  // Global slope should approach the average of slopes {1,2,3} = 2.
  EXPECT_NEAR(result.final_weights[0], 2.0f, 0.4f);
  EXPECT_GT(result.simulated_parallel_seconds, 0.0);
  EXPECT_LE(result.simulated_parallel_seconds, result.total_seconds + 1e-6);
}

TEST(SyncDriver, EveryExchangeCrossesTheWire) {
  auto clients = make_clients(16, 2);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  SyncDriver driver(server, clients, net);
  driver.run(2);
  const NetworkStats st = net.stats();
  // 2 rounds x 3 clients x (broadcast + upload) = 12 messages.
  EXPECT_EQ(st.messages_sent, 12u);
  // Each message: 40-byte header + 2 floats.
  EXPECT_EQ(st.bytes_sent, 12u * (40u + 2u * sizeof(float)));
}

TEST(SyncDriver, WeightDeltaShrinksAcrossRounds) {
  auto clients = make_clients(64, 3);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  SyncDriver driver(server, clients, net);
  const FederatedRunResult result = driver.run(6);
  // Convergence: last-round movement smaller than first-round movement.
  EXPECT_LT(result.rounds.back().weight_delta,
            result.rounds.front().weight_delta);
}

TEST(SyncDriver, ToleratesDroppedMessages) {
  auto clients = make_clients(16, 4);
  Server server({0.0f, 0.0f});
  NetworkConfig net_cfg;
  net_cfg.drop_probability = 0.4;
  net_cfg.drop_seed = 5;
  InMemoryNetwork net(net_cfg);
  SyncDriver driver(server, clients, net);
  const FederatedRunResult result = driver.run(5);
  ASSERT_EQ(result.rounds.size(), 5u);
  // Some rounds lost updates, none crashed.
  std::size_t total_updates = 0;
  for (const auto& r : result.rounds) {
    EXPECT_LE(r.updates_received, 3u);
    total_updates += r.updates_received;
  }
  EXPECT_LT(total_updates, 15u);  // drops actually happened
  EXPECT_GT(net.stats().messages_dropped, 0u);
}

TEST(SyncDriver, ZeroDeadlineMakesEveryUpdateLate) {
  // As in the fleet driver, a deadline <= 0 admits no update: nothing is
  // aggregated and every reached client times out.
  auto clients = make_clients(16, 14);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  RoundPolicy policy;
  policy.round_deadline_ms = 0.0;
  SyncDriver driver(server, clients, net, nullptr, nullptr, policy);
  const FederatedRunResult result = driver.run(2);
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const RoundMetrics& r : result.rounds) {
    EXPECT_EQ(r.dropped_messages, 0u);  // lossless: all 3 were reached
    EXPECT_EQ(r.updates_received, 0u);
    EXPECT_EQ(r.timed_out_clients, clients.size());
  }
  EXPECT_EQ(result.final_weights, (std::vector<float>{0.0f, 0.0f}));
}

TEST(Drivers, RequireClients) {
  std::vector<std::unique_ptr<Client>> none;
  Server server({0.0f});
  InMemoryNetwork net;
  EXPECT_THROW(SyncDriver(server, none, net), Error);
}

TEST(SyncDriver, RecordsRoundTelemetry) {
  auto clients = make_clients(32, 11);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  obs::RoundTelemetrySink sink;
  SyncDriver driver(server, clients, net, nullptr, nullptr, RoundPolicy{},
                    &sink);
  driver.run(3);

  ASSERT_EQ(sink.size(), 3u);
  const std::vector<obs::RoundTelemetry> rounds = sink.rounds();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(rounds[r].round, r);
    EXPECT_EQ(rounds[r].updates_accepted, 3u);
    ASSERT_EQ(rounds[r].client_train_seconds.size(), 3u);
    for (double s : rounds[r].client_train_seconds) EXPECT_GT(s, 0.0);
    EXPECT_GT(rounds[r].wall_seconds, 0.0);
    EXPECT_GT(rounds[r].max_client_seconds, 0.0);
    EXPECT_GT(rounds[r].bytes_down, 0u);
    EXPECT_GT(rounds[r].bytes_up, 0u);
    EXPECT_TRUE(rounds[r].quorum_met);
    EXPECT_EQ(rounds[r].rejected_updates, 0u);
  }
  EXPECT_GT(sink.round_seconds_quantile(0.5), 0.0);
}

TEST(SyncDriver, TelemetryCountsValidatorRejections) {
  // Client 0's update is NaN-corrupted every round: the validator rejects
  // it, and the telemetry record must carry the rejection breakdown.
  auto clients = make_clients(16, 13);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  faults::FaultPlan plan;
  plan.corrupt(0, faults::CorruptionMode::kNaN, 0, faults::kAllRounds, 1.0);
  const faults::FaultInjector injector(plan, 17);
  obs::RoundTelemetrySink sink;
  SyncDriver driver(server, clients, net, nullptr, &injector, RoundPolicy{},
                    &sink);
  driver.run(2);

  ASSERT_EQ(sink.size(), 2u);
  for (const obs::RoundTelemetry& rt : sink.rounds()) {
    EXPECT_EQ(rt.updates_accepted, 2u);
    EXPECT_EQ(rt.rejected_nonfinite, 1u);
    EXPECT_EQ(rt.rejected_updates, 1u);
  }
}

TEST(SyncDriver, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto clients = make_clients(32, 9);
    Server server({0.0f, 0.0f});
    InMemoryNetwork net;
    SyncDriver driver(server, clients, net);
    return driver.run(3).final_weights;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace evfl::fl
