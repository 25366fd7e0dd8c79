// Fault-injection acceptance tests: the federated runtime must degrade
// gracefully — never hang, never diverge — under crashes, stragglers,
// corrupted updates, duplicates and stale replays.
#include <gtest/gtest.h>

#include <cmath>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "fl/driver.hpp"
#include "metrics/regression.hpp"
#include "nn/dense.hpp"
#include "runtime/thread_pool.hpp"

namespace evfl::fl {
namespace {

using faults::CorruptionMode;
using faults::FaultInjector;
using faults::FaultPlan;
using faults::FaultStats;
using tensor::Rng;
using tensor::Tensor3;

ModelFactory linear_factory() {
  return [](Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
}

/// Homogeneous clients (all fit y = 2x): losing any one client must not
/// move the optimum, so fault-tolerance shows up as unchanged R², not as a
/// shifted consensus.
std::vector<std::unique_ptr<Client>> make_clients(std::size_t count,
                                                  std::size_t n_per_client,
                                                  std::uint64_t seed) {
  std::vector<std::unique_ptr<Client>> clients;
  Rng root(seed);
  for (int c = 0; c < static_cast<int>(count); ++c) {
    Tensor3 x(n_per_client, 1, 1), y(n_per_client, 1, 1);
    Rng data_rng = root.split();
    for (std::size_t i = 0; i < n_per_client; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = 2.0f * xi;
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

/// R² of the final global linear model (w, b) on held-out y = 2x data.
double holdout_r2(const std::vector<float>& weights) {
  Rng rng(991);
  std::vector<float> actual, predicted;
  for (int i = 0; i < 256; ++i) {
    const float x = rng.uniform(-1.0f, 1.0f);
    actual.push_back(2.0f * x);
    predicted.push_back(weights[0] * x + weights[1]);
  }
  return metrics::r2_score(actual, predicted);
}

FederatedRunResult run_sync(const FaultInjector* injector,
                            std::uint64_t seed, std::size_t rounds) {
  auto clients = make_clients(3, 64, seed);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  SyncDriver driver(server, clients, net, nullptr, injector);
  return driver.run(rounds);
}

// --- FaultInjector unit behaviour -----------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicAndScheduleFree) {
  FaultPlan plan;
  plan.crash(faults::kAllClients, 0, faults::kAllRounds, 0.5);
  const FaultInjector a(plan, 42);
  const FaultInjector b(plan, 42);
  const FaultInjector c(plan, 43);
  std::size_t agree = 0, differ_from_c = 0;
  for (int client = 0; client < 8; ++client) {
    for (std::uint32_t round = 0; round < 32; ++round) {
      const bool da = a.should_crash(client, round);
      // Same (plan, seed): identical answers, however often asked.
      EXPECT_EQ(da, b.should_crash(client, round));
      EXPECT_EQ(da, a.should_crash(client, round));
      agree += da;
      differ_from_c += (da != c.should_crash(client, round));
    }
  }
  // p=0.5 over 256 draws: both outcomes occur, and a different seed gives a
  // different pattern.
  EXPECT_GT(agree, 64u);
  EXPECT_LT(agree, 192u);
  EXPECT_GT(differ_from_c, 0u);
}

TEST(FaultInjector, CorruptionModesDamageUpdatesAsSpecified) {
  WeightUpdate u;
  u.client_id = 1;
  u.round = 0;
  u.weights = {1.0f, -2.0f, 3.0f, -4.0f};

  {
    FaultPlan plan;
    plan.corrupt(1, CorruptionMode::kNaN);
    WeightUpdate v = u;
    EXPECT_TRUE(FaultInjector(plan).corrupt_update(v));
    EXPECT_FALSE(all_finite(v.weights));
  }
  {
    FaultPlan plan;
    plan.corrupt(1, CorruptionMode::kInf);
    WeightUpdate v = u;
    EXPECT_TRUE(FaultInjector(plan).corrupt_update(v));
    EXPECT_FALSE(all_finite(v.weights));
  }
  {
    faults::FaultRule rule;
    rule.kind = faults::FaultKind::kCorrupt;
    rule.client = 1;
    rule.mode = CorruptionMode::kNormInflate;
    rule.norm_factor = 100.0;
    FaultPlan plan;
    plan.add(rule);
    WeightUpdate v = u;
    EXPECT_TRUE(FaultInjector(plan).corrupt_update(v));
    EXPECT_FLOAT_EQ(v.weights[0], 100.0f);
    EXPECT_TRUE(all_finite(v.weights));
  }
  {
    FaultPlan plan;
    plan.corrupt(1, CorruptionMode::kSignFlip);
    WeightUpdate v = u;
    EXPECT_TRUE(FaultInjector(plan).corrupt_update(v));
    EXPECT_FLOAT_EQ(v.weights[0], -1.0f);
    EXPECT_FLOAT_EQ(v.weights[1], 2.0f);
  }
  {
    // Rule scoped to another client: no corruption.
    FaultPlan plan;
    plan.corrupt(2, CorruptionMode::kNaN);
    WeightUpdate v = u;
    EXPECT_FALSE(FaultInjector(plan).corrupt_update(v));
    EXPECT_EQ(v.weights, u.weights);
  }
}

// --- Acceptance: crash + corruption under SyncDriver ----------------------

TEST(Faults, CrashAndCorruptionRunMatchesPlanAndHoldsR2) {
  constexpr std::size_t kRounds = 10;

  // Fault-free reference.
  const FederatedRunResult clean = run_sync(nullptr, 17, kRounds);

  // Crash client 0 every round; poison client 1's update with NaNs.
  FaultPlan plan;
  plan.crash(0);
  plan.corrupt(1, CorruptionMode::kNaN);
  const FaultInjector injector(plan, 7);
  const FederatedRunResult faulty = run_sync(&injector, 17, kRounds);

  // The run completed all rounds without hanging.
  ASSERT_EQ(faulty.rounds.size(), kRounds);

  // Counters match the plan exactly: one crash and one rejection per round.
  EXPECT_EQ(faulty.total_timed_out_clients(), kRounds);
  EXPECT_EQ(faulty.total_rejected_updates(), kRounds);
  for (const RoundMetrics& r : faulty.rounds) {
    EXPECT_EQ(r.timed_out_clients, 1u);
    EXPECT_EQ(r.rejected_updates, 1u);
    EXPECT_EQ(r.updates_received, 1u);  // only client 2 survives validation
  }
  EXPECT_EQ(injector.stats().crashes, kRounds);
  EXPECT_EQ(injector.stats().corrupted_updates, kRounds);

  // Final weights are finite and forecasting quality held: R² within 10%
  // of the fault-free run.
  ASSERT_EQ(faulty.final_weights.size(), 2u);
  EXPECT_TRUE(all_finite(faulty.final_weights));
  const double r2_clean = holdout_r2(clean.final_weights);
  const double r2_faulty = holdout_r2(faulty.final_weights);
  EXPECT_GT(r2_clean, 0.9);
  EXPECT_GT(r2_faulty, r2_clean * 0.9);
}

TEST(Faults, UnvalidatedNaNWouldPoisonButValidatorBlocksIt) {
  // Direct server check: one poisoned update among good ones never reaches
  // the global model.
  Server server({1.0f, 1.0f});
  WeightUpdate good;
  good.client_id = 0;
  good.round = 0;
  good.sample_count = 10;
  good.weights = {2.0f, 0.0f};
  WeightUpdate bad = good;
  bad.client_id = 1;
  bad.weights = {std::nanf(""), 5.0f};
  server.finish_round({good, bad});
  EXPECT_TRUE(all_finite(server.weights()));
  EXPECT_FLOAT_EQ(server.weights()[0], 2.0f);
  EXPECT_EQ(server.last_audit().rejected_nonfinite, 1u);
}

// --- Duplicates and stale replays ----------------------------------------

TEST(Faults, DuplicateSendsAreDeliveredTwiceAndRejectedOnce) {
  auto clients = make_clients(3, 32, 5);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  FaultPlan plan;
  plan.duplicate(1);  // client 1's uploads delivered twice, every round
  const FaultInjector injector(plan, 3);
  SyncDriver driver(server, clients, net, nullptr, &injector);
  const FederatedRunResult result = driver.run(3);

  EXPECT_EQ(net.stats().messages_duplicated, 3u);
  EXPECT_EQ(result.total_rejected_updates(), 3u);  // the duplicate copies
  for (const RoundMetrics& r : result.rounds) {
    EXPECT_EQ(r.updates_received, 3u);  // all three clients still aggregate
  }
}

TEST(Faults, StaleReplaysAreCountedAsLateAndRejected) {
  auto clients = make_clients(3, 32, 6);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  FaultPlan plan;
  plan.stale_replay(2, 1);  // from round 1 on, client 2 replays round r-1
  const FaultInjector injector(plan, 3);
  SyncDriver driver(server, clients, net, nullptr, &injector);
  const FederatedRunResult result = driver.run(4);

  // Rounds 1..3 each see one stale arrival.
  EXPECT_EQ(result.total_late_updates(), 3u);
  for (const RoundMetrics& r : result.rounds) {
    EXPECT_EQ(r.updates_received, 3u);
    EXPECT_EQ(r.timed_out_clients, 0u);
  }
  EXPECT_TRUE(all_finite(result.final_weights));
}

TEST(Faults, WrongDimensionUpdateDegradesRoundNotServer) {
  // A malformed payload must be rejected like any other Byzantine input,
  // never terminate the server process.
  Server server({1.0f, 1.0f});
  WeightUpdate good;
  good.client_id = 0;
  good.round = 0;
  good.sample_count = 10;
  good.weights = {2.0f, 0.0f};
  WeightUpdate malformed = good;
  malformed.client_id = 1;
  malformed.weights = {1.0f, 2.0f, 3.0f};  // global model has 2 weights
  server.finish_round({good, malformed});
  EXPECT_EQ(server.last_audit().rejected_dimension, 1u);
  EXPECT_EQ(server.last_audit().accepted, 1u);
  EXPECT_EQ(server.round(), 1u);
  EXPECT_FLOAT_EQ(server.weights()[0], 2.0f);
}

TEST(Faults, StaleReplayDoesNotRetriggerDuplicateRule) {
  // A replayed round r-1 message crossing the wire during round r must not
  // consult the duplicate rule again: decisions are once per (client,
  // round), so duplicate counts track fresh sends only.
  auto clients = make_clients(3, 32, 8);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  FaultPlan plan;
  plan.duplicate(2);         // every fresh upload from client 2 duplicated
  plan.stale_replay(2, 1);   // from round 1 on, client 2 replays round r-1
  const FaultInjector injector(plan, 9);
  SyncDriver driver(server, clients, net, nullptr, &injector);
  const FederatedRunResult result = driver.run(4);

  // 4 fresh uploads duplicated once each; the 3 stale replays add nothing.
  EXPECT_EQ(net.stats().messages_duplicated, 4u);
  EXPECT_EQ(injector.stats().duplicated_messages, 4u);
  EXPECT_EQ(injector.stats().stale_replays, 3u);
  EXPECT_EQ(result.total_late_updates(), 3u);
}

// --- Norm clipping --------------------------------------------------------

TEST(Faults, NormInflatedUpdateIsClippedNotFatal) {
  ValidatorConfig vc;
  vc.max_update_norm = 1.0;
  Server server({0.0f, 0.0f}, {}, vc);
  WeightUpdate huge;
  huge.client_id = 0;
  huge.round = 0;
  huge.sample_count = 10;
  huge.weights = {1000.0f, 0.0f};
  server.finish_round({huge});
  EXPECT_EQ(server.last_audit().clipped, 1u);
  // Movement clipped to norm 1: the global model moved, but boundedly.
  EXPECT_NEAR(server.weights()[0], 1.0f, 1e-4f);
}

// --- Acceptance: straggler + deadline -------------------------------------

FederatedRunResult run_straggler(const runtime::RunContext* ctx,
                                 FaultStats* stats = nullptr) {
  auto clients = make_clients(3, 64, 21);
  Server server({0.0f, 0.0f});
  InMemoryNetwork net;
  FaultPlan plan;
  plan.straggle(2, 600.0);  // client 2 runs 600 ms late in every round
  const FaultInjector injector(plan, 11);
  RoundPolicy policy;
  policy.round_deadline_ms = 250.0;
  SyncDriver driver(server, clients, net, ctx, &injector, policy);
  FederatedRunResult result = driver.run(4);
  if (stats != nullptr) *stats = injector.stats();
  return result;
}

TEST(Faults, StragglerRoundsCloseAtDeadlineDeterministically) {
  FaultStats stats;
  const FederatedRunResult a = run_straggler(nullptr, &stats);

  ASSERT_EQ(a.rounds.size(), 4u);
  for (const RoundMetrics& r : a.rounds) {
    // Partial aggregation: the two fast clients always make it; the
    // straggler's update misses the deadline, so it is never sent.
    EXPECT_EQ(r.updates_received, 2u);
    EXPECT_EQ(r.timed_out_clients, 1u);
    EXPECT_EQ(r.late_updates, 0u);
    // The round's slowest client is the straggler: its virtual round time
    // carries the scripted delay.
    EXPECT_GE(r.max_client_seconds, 0.6);
  }
  // Each round closes at its 250 ms deadline, so the straggler adds only
  // the deadline to the run's simulated time, not its whole delay.
  EXPECT_DOUBLE_EQ(a.simulated_parallel_seconds, 4 * 0.25);
  EXPECT_EQ(stats.straggler_delays, 4u);
  EXPECT_TRUE(all_finite(a.final_weights));
  EXPECT_GT(holdout_r2(a.final_weights), 0.9);

  // Bit-identical across two serial runs and a pooled one.
  const FederatedRunResult b = run_straggler(nullptr);
  EXPECT_EQ(a.final_weights, b.final_weights);
  runtime::ThreadPool pool(4);
  const runtime::RunContext ctx{&pool, nullptr};
  const FederatedRunResult c = run_straggler(&ctx);
  EXPECT_EQ(a.final_weights, c.final_weights);
}

// --- Quorum ---------------------------------------------------------------

TEST(Faults, UnderQuorumRoundLeavesWeightsUnchanged) {
  ValidatorConfig vc;
  vc.min_updates = 2;
  Server server({5.0f}, {}, vc);
  WeightUpdate lone;
  lone.client_id = 0;
  lone.round = 0;
  lone.sample_count = 4;
  lone.weights = {1.0f};
  const double delta = server.finish_round({lone});
  EXPECT_EQ(delta, 0.0);
  EXPECT_FLOAT_EQ(server.weights()[0], 5.0f);
  EXPECT_EQ(server.round(), 1u);
  EXPECT_FALSE(server.last_audit().quorum_met);
}

}  // namespace
}  // namespace evfl::fl
