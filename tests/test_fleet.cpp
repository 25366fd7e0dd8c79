#include "fl/fleet.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "datagen/fleet.hpp"
#include "fl/server.hpp"
#include "forecast/model.hpp"
#include "obs/round_telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace evfl {
namespace {

datagen::FleetConfig small_fleet_cfg(std::size_t clients) {
  datagen::FleetConfig cfg;
  cfg.clients = clients;
  cfg.hours = 60;
  cfg.seed = 99;
  return cfg;
}

forecast::ForecasterConfig tiny_model_cfg() {
  forecast::ForecasterConfig cfg;
  cfg.sequence_length = 12;
  cfg.lstm_units = 4;
  cfg.dense_units = 2;
  return cfg;
}

fl::FleetDriverConfig tiny_driver_cfg(std::size_t edges) {
  fl::FleetDriverConfig cfg;
  cfg.edges = edges;
  cfg.lookback = 12;
  cfg.client.epochs_per_round = 1;
  return cfg;
}

fl::ModelFactory tiny_factory() {
  return [](tensor::Rng& rng) {
    return forecast::make_forecaster(tiny_model_cfg(), rng);
  };
}

std::vector<float> root_weights() {
  tensor::Rng rng(7);
  return forecast::make_forecaster(tiny_model_cfg(), rng).get_weights();
}

TEST(MakeFleet, DeterministicAndPopulationSizeIndependent) {
  const std::vector<datagen::ClientSpec> a =
      datagen::make_fleet(small_fleet_cfg(16));
  const std::vector<datagen::ClientSpec> b =
      datagen::make_fleet(small_fleet_cfg(16));
  const std::vector<datagen::ClientSpec> prefix =
      datagen::make_fleet(small_fleet_cfg(8));
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].series_seed, b[i].series_seed);
    EXPECT_EQ(a[i].hours, b[i].hours);
    EXPECT_EQ(a[i].profile.zone_id, b[i].profile.zone_id);
  }
  // Client i's spec never depends on how many other clients exist.
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(a[i].series_seed, prefix[i].series_seed);
    EXPECT_EQ(a[i].hours, prefix[i].hours);
  }
}

TEST(MakeFleet, PopulationIsHeterogeneous) {
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(32));
  std::set<std::size_t> hours;
  std::set<int> archetypes;
  for (const datagen::ClientSpec& s : fleet) {
    EXPECT_GE(s.hours, 48u);
    hours.insert(s.hours);
    archetypes.insert(s.archetype);
  }
  EXPECT_GT(hours.size(), 4u);       // jittered series lengths
  EXPECT_GT(archetypes.size(), 1u);  // more than one zone archetype drawn
}

TEST(MakeFleet, MaterializeSeriesIsPure) {
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(4));
  const data::TimeSeries once = datagen::materialize_series(fleet[2]);
  const data::TimeSeries again = datagen::materialize_series(fleet[2]);
  EXPECT_EQ(once.values, again.values);
  EXPECT_EQ(once.values.size(), fleet[2].hours);
}

TEST(FleetDriver, TreeTopologyIsInvisibleUnderDense) {
  // The tentpole end-to-end: the same fleet trained behind 1 edge and
  // behind 4 edges yields bit-identical global weights (kDense everywhere,
  // no faults) — aggregation trees are exact, and sampling/training are
  // spec-deterministic, not topology-dependent.
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(8));

  std::vector<float> w1, w4;
  for (const std::size_t edges : {1u, 4u}) {
    fl::Server root(root_weights());
    fl::FleetDriver driver(root, fleet, tiny_factory(),
                           tiny_driver_cfg(edges));
    const fl::FederatedRunResult res = driver.run(2);
    ASSERT_EQ(res.rounds.size(), 2u);
    EXPECT_EQ(res.rounds[0].updates_received, 8u);
    (edges == 1 ? w1 : w4) = res.final_weights;
  }
  EXPECT_EQ(w1, w4);  // bit-identical, not approximately equal
}

TEST(FleetDriver, SamplingBoundsParticipationAndTimeouts) {
  // Satellite 2: unsampled clients are counted nowhere — not trained, not
  // timed out — and the round reports cohort vs population.
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(8));
  fl::FleetDriverConfig cfg = tiny_driver_cfg(2);
  cfg.sampling.mode = fl::SamplingMode::kFixedSize;
  cfg.sampling.count = 4;

  fl::Server root(root_weights());
  obs::RoundTelemetrySink telemetry;
  fl::FleetDriver driver(root, fleet, tiny_factory(), cfg, nullptr, nullptr,
                         &telemetry);
  const fl::FederatedRunResult res = driver.run(1);
  ASSERT_EQ(res.rounds.size(), 1u);
  const fl::RoundMetrics& rm = res.rounds[0];
  EXPECT_EQ(rm.population, 8u);
  EXPECT_EQ(rm.sampled_clients, 4u);
  EXPECT_EQ(rm.updates_received, 4u);
  EXPECT_EQ(rm.timed_out_clients, 0u);
  EXPECT_EQ(rm.dropped_messages, 0u);

  ASSERT_EQ(telemetry.size(), 1u);
  const obs::RoundTelemetry rt = telemetry.rounds()[0];
  EXPECT_EQ(rt.population, 8u);
  EXPECT_EQ(rt.sampled_clients, 4u);
  // Train-seconds are reported for the sampled cohort only — no
  // zero-padding to the population size.
  EXPECT_EQ(rt.client_train_seconds.size(), 4u);
}

TEST(FleetDriver, CrashedEdgeDropsItsShardNotTheRound) {
  // Satellite 3: fault injection through an aggregator tier.  Edge 1 of 2
  // crashes in round 0: its whole shard (leaves 4..7) is dropped, the root
  // sees one child and — with min_updates=2 — skips the round (quorum
  // false, weights unchanged).  Round 1 both edges return and the model
  // moves.  Partial aggregation at every tier; never an abort.
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(8));
  faults::FaultPlan plan;
  plan.crash(fl::FleetDriver::edge_node_id(1), /*from=*/0, /*to=*/0);
  const faults::FaultInjector injector(plan);

  fl::ValidatorConfig root_vcfg;
  root_vcfg.min_updates = 2;  // per-tier quorum at the root, counted in edges
  fl::Server root(root_weights(), {}, root_vcfg);
  fl::FleetDriver driver(root, fleet, tiny_factory(), tiny_driver_cfg(2),
                         nullptr, &injector);
  const fl::FederatedRunResult res = driver.run(2);
  ASSERT_EQ(res.rounds.size(), 2u);

  const fl::RoundMetrics& r0 = res.rounds[0];
  EXPECT_EQ(r0.dropped_messages, 4u);   // the dark shard's broadcasts
  EXPECT_EQ(r0.updates_received, 4u);   // surviving shard's leaves
  EXPECT_EQ(r0.timed_out_clients, 0u);  // nobody who was reached went silent
  EXPECT_EQ(r0.weight_delta, 0.0);      // root under quorum: model held

  const fl::RoundMetrics& r1 = res.rounds[1];
  EXPECT_EQ(r1.updates_received, 8u);
  EXPECT_EQ(r1.dropped_messages, 0u);
  EXPECT_GT(r1.weight_delta, 0.0);      // recovered: both shards aggregated
}

TEST(FleetDriver, CrashedLeafTimesOutAgainstItsEdge) {
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(8));
  faults::FaultPlan plan;
  plan.crash(fleet[3].id, /*from=*/0, /*to=*/0);
  const faults::FaultInjector injector(plan);

  fl::Server root(root_weights());
  fl::FleetDriver driver(root, fleet, tiny_factory(), tiny_driver_cfg(2),
                         nullptr, &injector);
  const fl::FederatedRunResult res = driver.run(1);
  const fl::RoundMetrics& rm = res.rounds[0];
  EXPECT_EQ(rm.updates_received, 7u);
  EXPECT_EQ(rm.timed_out_clients, 1u);
  EXPECT_EQ(rm.dropped_messages, 0u);
}

TEST(FleetDriver, DuplicatesAndStaleReplaysAreRejectedAtTheEdge) {
  // Leaf 2's upload arrives twice every round, and from round 1 leaf 3
  // replays its previous round's upload ahead of the fresh one.  The leaf
  // Clients are rebuilt every round, so the driver carries leaf 3's last
  // upload across rounds.  The edges' validators reject every extra copy
  // and every replay, so the model ends where a fault-free run does,
  // serially and with leaves trained on a pool.
  const std::vector<datagen::ClientSpec> fleet =
      datagen::make_fleet(small_fleet_cfg(8));
  fl::Server clean_root(root_weights());
  fl::FleetDriver clean(clean_root, fleet, tiny_factory(),
                        tiny_driver_cfg(2));
  const fl::FederatedRunResult want = clean.run(3);

  runtime::ThreadPool pool(4);
  const runtime::RunContext pooled{&pool, nullptr};
  const runtime::RunContext* const contexts[] = {nullptr, &pooled};
  for (const runtime::RunContext* ctx : contexts) {
    SCOPED_TRACE(ctx == nullptr ? "serial" : "pool of 4");
    faults::FaultPlan plan;
    plan.duplicate(fleet[2].id);
    plan.stale_replay(fleet[3].id, /*from=*/1);
    const faults::FaultInjector injector(plan);
    fl::Server root(root_weights());
    obs::RoundTelemetrySink telemetry;
    fl::FleetDriver faulty(root, fleet, tiny_factory(), tiny_driver_cfg(2),
                           ctx, &injector, &telemetry);
    const fl::FederatedRunResult res = faulty.run(3);

    const faults::FaultStats stats = injector.stats();
    EXPECT_EQ(stats.duplicated_messages, 3u);  // one extra copy per round
    EXPECT_EQ(stats.stale_replays, 2u);        // rounds 1 and 2
    ASSERT_EQ(res.rounds.size(), 3u);
    const std::vector<obs::RoundTelemetry> audits = telemetry.rounds();
    ASSERT_EQ(audits.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      const fl::RoundMetrics& rm = res.rounds[r];
      const obs::RoundTelemetry& rt = audits[r];
      EXPECT_EQ(rm.updates_received, 8u);
      EXPECT_EQ(rt.rejected_duplicate, 1u);
      EXPECT_EQ(rm.rejected_updates, 1u);
      EXPECT_EQ(rt.rejected_stale, r == 0 ? 0u : 1u);
      EXPECT_EQ(rm.late_updates, r == 0 ? 0u : 1u);
      EXPECT_EQ(rm.timed_out_clients, 0u);
    }
    // The extra deliveries cross the leaf->edge wire and count there.
    EXPECT_GT(res.network.messages_sent, want.network.messages_sent);
    EXPECT_EQ(res.final_weights, want.final_weights);  // bit-identical
  }
}

}  // namespace
}  // namespace evfl
