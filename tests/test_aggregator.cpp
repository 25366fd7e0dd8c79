#include "fl/aggregator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fl/serialize.hpp"
#include "fl/server.hpp"

namespace evfl::fl {
namespace {

WeightUpdate make_update(int id, std::uint64_t samples,
                         std::vector<float> weights, std::uint32_t round = 0) {
  WeightUpdate u;
  u.client_id = id;
  u.round = round;
  u.sample_count = samples;
  u.train_loss = 0.25f;
  u.weights = std::move(weights);
  return u;
}

/// A deterministic heterogeneous leaf population: varied weights and varied
/// sample counts (the case two-level weighting must get right).
std::vector<WeightUpdate> make_leaves(std::size_t n, std::size_t dim) {
  std::vector<WeightUpdate> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> w(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      w[d] = 0.0625f * static_cast<float>((i * 7 + d * 13) % 29) -
             0.5f * static_cast<float>(d);
    }
    leaves.push_back(make_update(static_cast<int>(i),
                                 11 + (i * 53) % 400, std::move(w)));
  }
  return leaves;
}

TEST(Aggregator, StreamingOfferMatchesBatchFinishRound) {
  const std::vector<float> init = {0.5f, -1.0f, 2.0f};
  const std::vector<WeightUpdate> updates = make_leaves(5, 3);

  Server batch(init);
  Aggregator streaming(init);
  batch.finish_round(updates);
  for (const WeightUpdate& u : updates) streaming.offer(u);
  streaming.close_round();

  EXPECT_EQ(streaming.weights(), batch.weights());
  EXPECT_EQ(streaming.round(), batch.round());
  EXPECT_EQ(streaming.last_audit().accepted, batch.last_audit().accepted);
}

TEST(Aggregator, TreeEqualsFlatBitIdenticalUnderDense) {
  // The tentpole acceptance: 8 edges x 128 heterogeneous leaves, forwarded
  // through the real kAggSum wire, produce the SAME float weights as one
  // flat server seeing all 1024 leaves.  EXPECT_EQ — bit-identical.
  const std::size_t kEdges = 8, kLeavesPerEdge = 128, kDim = 6;
  const std::vector<WeightUpdate> leaves =
      make_leaves(kEdges * kLeavesPerEdge, kDim);
  std::vector<float> init(kDim, 0.125f);

  Server flat(init);
  flat.finish_round(leaves);

  Server root(init);
  std::vector<EdgeAggregator> edges;
  for (std::size_t e = 0; e < kEdges; ++e) {
    edges.emplace_back(-2 - static_cast<std::int32_t>(e), init);
  }
  for (std::size_t e = 0; e < kEdges; ++e) {
    edges[e].begin_round(root.broadcast_wire());
    for (std::size_t k = 0; k < kLeavesPerEdge; ++k) {
      edges[e].offer(leaves[e * kLeavesPerEdge + k]);
    }
    const std::vector<std::uint8_t>* fw = edges[e].forward_wire();
    ASSERT_NE(fw, nullptr);
    WeightUpdate up;
    deserialize_update_into(*fw, up);
    EXPECT_FALSE(up.agg_terms.empty());  // exact path taken
    root.offer(std::move(up));
  }
  root.close_round();

  EXPECT_EQ(root.weights(), flat.weights());
  EXPECT_EQ(root.round(), flat.round());
}

TEST(Aggregator, TreeEqualsFlatUnweighted) {
  // Unweighted mode folds forwarded aggregates by contributor count; the
  // grouping must still vanish exactly.
  const std::vector<WeightUpdate> leaves = make_leaves(12, 2);
  std::vector<float> init = {0.0f, 0.0f};
  FedAvgConfig cfg;
  cfg.weighted_by_samples = false;

  Server flat(init, cfg);
  flat.finish_round(leaves);

  Server root(init, cfg);
  std::vector<EdgeAggregator> edges;
  for (int e = 0; e < 3; ++e) edges.emplace_back(-2 - e, init, cfg);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (i % 4 == 0) edges[i / 4].begin_round(root.broadcast_wire());
    edges[i / 4].offer(leaves[i]);
  }
  for (EdgeAggregator& edge : edges) {
    const std::vector<std::uint8_t>* fw = edge.forward_wire();
    ASSERT_NE(fw, nullptr);
    WeightUpdate up;
    deserialize_update_into(*fw, up);
    root.offer(std::move(up));
  }
  root.close_round();
  EXPECT_EQ(root.weights(), flat.weights());
}

TEST(Aggregator, ForwardedUpdateCarriesCumulativeSamplesAndLoss) {
  std::vector<float> init = {1.0f};
  EdgeAggregator edge(-5, init);
  Server root(init);
  edge.begin_round(root.broadcast_wire());
  edge.offer(make_update(0, 300, {2.0f}));
  edge.offer(make_update(1, 100, {6.0f}));
  const std::vector<std::uint8_t>* fw = edge.forward_wire();
  ASSERT_NE(fw, nullptr);
  WeightUpdate up;
  deserialize_update_into(*fw, up);
  EXPECT_EQ(up.client_id, -5);
  EXPECT_EQ(up.sample_count, 400u);  // cumulative, not per-shard-mean
  EXPECT_EQ(up.agg_contributors, 2u);
  // The mean view decoded alongside the exact terms: (300*2+100*6)/400 = 3.
  ASSERT_EQ(up.weights.size(), 1u);
  EXPECT_NEAR(up.weights[0], 3.0f, 1e-6f);
  EXPECT_FLOAT_EQ(up.train_loss, 0.25f);
}

TEST(Aggregator, EdgeUnderQuorumForwardsNothing) {
  // Per-tier quorum (satellite 3): a shard below its own quorum drops out
  // of the round as a partial aggregation; the parent is never aborted.
  std::vector<float> init = {1.0f, 2.0f};
  ValidatorConfig vcfg;
  vcfg.min_updates = 2;
  EdgeAggregator edge(-2, init, {}, vcfg);
  Server root(init);
  edge.begin_round(root.broadcast_wire());
  edge.offer(make_update(0, 10, {1.5f, 2.5f}));
  EXPECT_EQ(edge.forward_wire(), nullptr);
  // The shard round still closed and audited.
  EXPECT_FALSE(edge.last_audit().quorum_met);
  EXPECT_EQ(edge.last_audit().accepted, 1u);

  // Root aggregates whatever arrived from other children; with zero
  // children this round it simply doesn't move.
  root.close_round();
  EXPECT_EQ(root.weights(), init);
}

TEST(Aggregator, EmptyShardRecoversNextRound) {
  std::vector<float> init = {1.0f};
  EdgeAggregator edge(-2, init);
  Server root(init);
  edge.begin_round(root.broadcast_wire());
  EXPECT_EQ(edge.forward_wire(), nullptr);  // nothing arrived
  root.close_round();  // round 0 closes empty

  edge.begin_round(root.broadcast_wire());  // round 1: shard comes back
  edge.offer(make_update(0, 10, {3.0f}, /*round=*/1));
  const std::vector<std::uint8_t>* fw = edge.forward_wire();
  ASSERT_NE(fw, nullptr);
  WeightUpdate up;
  deserialize_update_into(*fw, up);
  root.offer(std::move(up));
  root.close_round();
  EXPECT_FLOAT_EQ(root.weights()[0], 3.0f);
  EXPECT_EQ(root.round(), 2u);
}

TEST(Aggregator, ClippedForwardedAggregateStillFolds) {
  // Root clips the forwarded aggregate: exactness is forfeited (agg terms
  // dropped) but the clipped mean still aggregates — degraded, not aborted.
  std::vector<float> init = {0.0f};
  ValidatorConfig root_vcfg;
  root_vcfg.max_update_norm = 0.5;
  Server root(init, {}, root_vcfg);
  EdgeAggregator edge(-2, init);
  edge.begin_round(root.broadcast_wire());
  edge.offer(make_update(0, 10, {100.0f}));
  const std::vector<std::uint8_t>* fw = edge.forward_wire();
  ASSERT_NE(fw, nullptr);
  WeightUpdate up;
  deserialize_update_into(*fw, up);
  root.offer(std::move(up));
  root.close_round();
  EXPECT_EQ(root.last_audit().clipped, 1u);
  EXPECT_NEAR(root.weights()[0], 0.5f, 1e-5f);
}

TEST(Aggregator, RobustShardForwardMatchesFlatRobustReduction) {
  // Tree-vs-flat for the robust rules, at shard level: an edge running a
  // robust rule forwards exactly the reduction a flat robust aggregator
  // computes over the same leaves — bit-identical through the dense wire.
  std::vector<WeightUpdate> leaves = make_leaves(9, 4);
  leaves[3].weights.assign(4, 500.0f);  // a Byzantine minority
  leaves[7].weights.assign(4, -500.0f);
  const std::vector<float> init(4, 0.25f);

  for (const AggregationRule rule :
       {AggregationRule::kTrimmedMean, AggregationRule::kCoordinateMedian,
        AggregationRule::kNormBoundedMean, AggregationRule::kMultiKrum}) {
    FedAvgConfig cfg;
    cfg.rule = rule;
    cfg.krum_assumed_byzantine = 2;

    Aggregator flat(init, cfg);
    for (const WeightUpdate& u : leaves) flat.offer(u);
    flat.close_round();

    Server root(init, cfg);
    EdgeAggregator edge(-2, init, cfg);
    edge.begin_round(root.broadcast_wire());
    for (const WeightUpdate& u : leaves) edge.offer(u);
    const std::vector<std::uint8_t>* fw = edge.forward_wire();
    ASSERT_NE(fw, nullptr) << to_string(rule);
    WeightUpdate up;
    deserialize_update_into(*fw, up);
    // A robust reduction has no exact linear sum to ship: it travels as a
    // regular dense update tagged with its leaf count.
    EXPECT_TRUE(up.agg_terms.empty()) << to_string(rule);
    EXPECT_EQ(up.agg_contributors, 9u) << to_string(rule);
    EXPECT_EQ(up.weights, flat.weights()) << to_string(rule);
  }
}

TEST(Aggregator, RobustParentFoldsShardAggregatesInsteadOfRebuffering) {
  // "Robust-per-shard, fold upstream": each shard's robust reduction has
  // already defused its local minority, so the parent folds the shard means
  // by weight instead of subjecting 2 forwarded values to a 2-row order
  // statistic.  The composed result must sit in the honest hull even though
  // every shard contained attackers.
  const std::vector<float> init = {0.0f};
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kTrimmedMean;
  cfg.trim_fraction = 0.34;

  Server root(init, cfg);
  std::vector<EdgeAggregator> edges;
  for (int e = 0; e < 2; ++e) edges.emplace_back(-2 - e, init, cfg);
  for (int e = 0; e < 2; ++e) {
    edges[e].begin_round(root.broadcast_wire());
    const float honest = e == 0 ? 1.0f : 3.0f;
    edges[e].offer(make_update(e * 3 + 0, 10, {honest}));
    edges[e].offer(make_update(e * 3 + 1, 10, {honest}));
    edges[e].offer(make_update(e * 3 + 2, 10, {1000.0f}));  // 1/3 Byzantine
    const std::vector<std::uint8_t>* fw = edges[e].forward_wire();
    ASSERT_NE(fw, nullptr);
    WeightUpdate up;
    deserialize_update_into(*fw, up);
    EXPECT_GT(up.agg_contributors, 0u);
    root.offer(std::move(up));
  }
  root.close_round();
  // Both shard reductions trimmed their outlier; the fold is the equal-
  // weight mean of the honest shard values 1 and 3.
  EXPECT_NEAR(root.weights()[0], 2.0f, 1e-5f);
}

TEST(Aggregator, FinishRoundMatchesFedAvgUnderEveryRule) {
  // Aggregator and fed_avg share one FedAvg fold: leaves plus a forwarded
  // kAggSum aggregate reduce to the same weights through either entry
  // point, bit for bit, under every rule.
  constexpr std::size_t kDim = 4;
  std::vector<WeightUpdate> updates = make_leaves(9, kDim);
  updates[2].weights.assign(kDim, 40.0f);  // a Byzantine minority
  updates[6].weights.assign(kDim, -40.0f);

  FedAccumulator shard;
  shard.reset(kDim);
  for (const WeightUpdate& leaf : make_leaves(3, kDim)) {
    shard.add_update(leaf.weights, leaf.sample_count);
  }
  std::vector<std::uint8_t> wire;
  serialize_aggregate_into(/*round=*/0, /*client=*/-2, shard.total_weight(),
                           /*loss=*/0.5f, shard.contributors(),
                           shard.total_weight(), shard.terms(), wire);
  WeightUpdate forwarded;
  deserialize_update_into(wire, forwarded);
  ASSERT_FALSE(forwarded.agg_terms.empty());
  updates.push_back(std::move(forwarded));
  const std::vector<float> init(kDim, 0.25f);

  for (const AggregationRule rule :
       {AggregationRule::kMean, AggregationRule::kTrimmedMean,
        AggregationRule::kCoordinateMedian, AggregationRule::kNormBoundedMean,
        AggregationRule::kMultiKrum}) {
    FedAvgConfig cfg;
    cfg.rule = rule;
    Aggregator agg(init, cfg);
    agg.finish_round(updates);
    ASSERT_EQ(agg.last_audit().accepted, updates.size()) << to_string(rule);
    EXPECT_EQ(agg.weights(), fed_avg(updates, cfg, &init)) << to_string(rule);
  }
}

TEST(Aggregator, AdoptRebasesRoundAndRejectsMismatchedDim) {
  Aggregator agg(std::vector<float>{1.0f, 1.0f});
  agg.adopt(7, {2.0f, 3.0f});
  EXPECT_EQ(agg.round(), 7u);
  EXPECT_EQ(agg.weights(), (std::vector<float>{2.0f, 3.0f}));
  EXPECT_THROW(agg.adopt(8, {1.0f}), Error);

  // Updates for the pre-adopt round are now stale.
  agg.offer(make_update(0, 1, {1.0f, 1.0f}, /*round=*/0));
  agg.close_round();
  EXPECT_EQ(agg.last_audit().rejected_stale, 1u);
}

TEST(AggSumWire, RoundTripAndCorruptionDetection) {
  FedAccumulator acc;
  acc.reset(3);
  acc.add_update({1.5f, -2.0f, 0.25f}, 7);
  acc.add_update({0.5f, 4.0f, -1.0f}, 3);

  std::vector<std::uint8_t> wire;
  serialize_aggregate_into(/*round=*/5, /*client=*/-3, /*samples=*/10,
                           /*loss=*/1.5f, acc.contributors(),
                           acc.total_weight(), acc.terms(), wire);
  WeightUpdate up;
  deserialize_update_into(wire, up);
  EXPECT_EQ(up.round, 5u);
  EXPECT_EQ(up.client_id, -3);
  EXPECT_EQ(up.sample_count, 10u);
  EXPECT_EQ(up.agg_contributors, 2u);
  ASSERT_EQ(up.agg_terms.size(), 3u);
  EXPECT_TRUE(up.agg_terms == acc.terms());
  std::vector<float> mean;
  acc.mean(mean);
  EXPECT_EQ(up.weights, mean);  // decoded mean view == accumulator mean

  // Truncation and payload corruption must throw, not misparse.
  std::vector<std::uint8_t> truncated(wire.begin(), wire.end() - 5);
  EXPECT_THROW(deserialize_update_into(truncated, up), FormatError);
  std::vector<std::uint8_t> flipped = wire;
  flipped[flipped.size() - 1] ^= 0x40;
  EXPECT_THROW(deserialize_update_into(flipped, up), FormatError);
}

}  // namespace
}  // namespace evfl::fl
