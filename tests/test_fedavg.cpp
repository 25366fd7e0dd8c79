#include "fl/fedavg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/error.hpp"
#include "fl/weights.hpp"

namespace evfl::fl {
namespace {

WeightUpdate make_update(int id, std::uint64_t samples,
                         std::vector<float> weights) {
  WeightUpdate u;
  u.client_id = id;
  u.sample_count = samples;
  u.weights = std::move(weights);
  return u;
}

TEST(FedAvg, EqualSamplesIsPlainMean) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 100, {1.0f, 2.0f}),
      make_update(1, 100, {3.0f, 6.0f}),
  };
  const auto avg = fed_avg(updates);
  EXPECT_FLOAT_EQ(avg[0], 2.0f);
  EXPECT_FLOAT_EQ(avg[1], 4.0f);
}

TEST(FedAvg, SampleWeighting) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 300, {0.0f}),
      make_update(1, 100, {4.0f}),
  };
  const auto avg = fed_avg(updates);
  EXPECT_FLOAT_EQ(avg[0], 1.0f);  // (300*0 + 100*4) / 400
}

TEST(FedAvg, UnweightedIgnoresSampleCounts) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 300, {0.0f}),
      make_update(1, 100, {4.0f}),
  };
  FedAvgConfig cfg;
  cfg.weighted_by_samples = false;
  const auto avg = fed_avg(updates, cfg);
  EXPECT_FLOAT_EQ(avg[0], 2.0f);
}

TEST(FedAvg, SingleClientIsIdentity) {
  const std::vector<WeightUpdate> updates = {make_update(0, 5, {1, 2, 3})};
  EXPECT_EQ(fed_avg(updates), (std::vector<float>{1, 2, 3}));
}

TEST(FedAvg, DimensionMismatchThrows) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 1, {1.0f}),
      make_update(1, 1, {1.0f, 2.0f}),
  };
  EXPECT_THROW(fed_avg(updates), Error);
}

TEST(FedAvg, EmptyInputsThrow) {
  EXPECT_THROW(fed_avg({}), Error);
  EXPECT_THROW(fed_avg({make_update(0, 1, {})}), Error);
}

TEST(FedAvg, ZeroSamplesWithWeightingThrows) {
  const std::vector<WeightUpdate> updates = {make_update(0, 0, {1.0f})};
  EXPECT_THROW(fed_avg(updates), Error);
  FedAvgConfig cfg;
  cfg.weighted_by_samples = false;
  EXPECT_NO_THROW(fed_avg(updates, cfg));
}

TEST(FedAvg, AverageStaysWithinHull) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 10, {-1.0f, 5.0f}),
      make_update(1, 20, {2.0f, 1.0f}),
      make_update(2, 30, {0.5f, 3.0f}),
  };
  const auto avg = fed_avg(updates);
  EXPECT_GE(avg[0], -1.0f);
  EXPECT_LE(avg[0], 2.0f);
  EXPECT_GE(avg[1], 1.0f);
  EXPECT_LE(avg[1], 5.0f);
}

TEST(FedAccumulator, StreamingMatchesBatch) {
  const std::vector<WeightUpdate> updates = {
      make_update(0, 300, {0.125f, -2.5f}),
      make_update(1, 100, {4.0f, 0.75f}),
      make_update(2, 57, {-1.25f, 3.5f}),
  };
  const std::vector<float> batch = fed_avg(updates);
  FedAccumulator acc;
  acc.reset(2);
  for (const WeightUpdate& u : updates) acc.add_update(u.weights, u.sample_count);
  std::vector<float> streamed;
  acc.mean(streamed);
  EXPECT_EQ(streamed, batch);  // bit-identical, not just close
}

TEST(FedAccumulator, GroupingInvarianceWithHeterogeneousSamples) {
  // The satellite-1 property at the accumulator level: folding per-group
  // fixed-point sums with *cumulative* sample counts reproduces the flat
  // weighted mean bit for bit, whatever the grouping.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 12; ++i) {
    updates.push_back(make_update(
        i, 10 + 37 * static_cast<std::uint64_t>(i),
        {0.1f * static_cast<float>(i) - 0.4f,
         1.0f / (1.0f + static_cast<float>(i))}));
  }

  FedAccumulator flat;
  flat.reset(2);
  for (const WeightUpdate& u : updates) flat.add_update(u.weights, u.sample_count);
  std::vector<float> flat_mean;
  flat.mean(flat_mean);

  for (const std::size_t groups : {1u, 3u, 4u}) {
    FedAccumulator parent;
    parent.reset(2);
    for (std::size_t g = 0; g < groups; ++g) {
      FedAccumulator shard;
      shard.reset(2);
      std::uint64_t cumulative = 0;
      for (std::size_t i = g; i < updates.size(); i += groups) {
        shard.add_update(updates[i].weights, updates[i].sample_count);
        cumulative += updates[i].sample_count;
      }
      parent.add_terms(shard.terms(), cumulative, shard.contributors());
    }
    std::vector<float> tree_mean;
    parent.mean(tree_mean);
    EXPECT_EQ(tree_mean, flat_mean) << groups << " groups";
  }
}

TEST(FedAvg, FoldsForwardedAggregates) {
  // An update carrying agg_terms is a shard's exact partial sum; fed_avg
  // must weight it by its cumulative sample count.
  FedAccumulator shard;
  shard.reset(1);
  shard.add_update({2.0f}, 300);  // leaves: 300 samples at 2.0
  shard.add_update({6.0f}, 100);  //         100 samples at 6.0

  WeightUpdate forwarded;
  forwarded.client_id = -2;
  forwarded.sample_count = 400;  // cumulative
  forwarded.weights = {3.0f};    // the mean view (validator's concern)
  forwarded.agg_terms = shard.terms();
  forwarded.agg_contributors = 2;
  const std::vector<WeightUpdate> mixed = {
      forwarded, make_update(9, 400, {5.0f})};
  const std::vector<float> avg = fed_avg(mixed);
  // (300*2 + 100*6 + 400*5) / 800 = 4.0
  EXPECT_FLOAT_EQ(avg[0], 4.0f);

  // Unweighted mode folds by contributor count.  The shard must have been
  // accumulated under the same (unweighted) config — weight 1 per leaf.
  FedAccumulator flat_shard;
  flat_shard.reset(1);
  flat_shard.add_update({2.0f}, 1);
  flat_shard.add_update({6.0f}, 1);
  WeightUpdate forwarded_unweighted = forwarded;
  forwarded_unweighted.agg_terms = flat_shard.terms();
  FedAvgConfig cfg;
  cfg.weighted_by_samples = false;
  const std::vector<float> unweighted =
      fed_avg({forwarded_unweighted, make_update(9, 400, {5.0f})}, cfg);
  EXPECT_NEAR(unweighted[0], (2.0 + 6.0 + 5.0) / 3.0, 1e-6);
}

TEST(FedAvg, ToFixedHandlesNonFiniteAndCap) {
  EXPECT_EQ(to_fixed(std::numeric_limits<double>::quiet_NaN()),
            static_cast<ExactTerm>(0));
  EXPECT_EQ(to_fixed(std::numeric_limits<double>::infinity()),
            to_fixed(kExactTermCap));
  EXPECT_EQ(to_fixed(-std::numeric_limits<double>::infinity()),
            to_fixed(-kExactTermCap));
  EXPECT_EQ(to_fixed(1.0), static_cast<ExactTerm>(1) << 64);
}

/// The conversion to_fixed replaced: clamp, scale by 2^64 (exact), and
/// the truncating cast.
ExactTerm cast_to_fixed(double term) {
  if (std::isnan(term)) return 0;
  term = std::clamp(term, -kExactTermCap, kExactTermCap);
  return static_cast<ExactTerm>(term * 18446744073709551616.0);
}

TEST(FedAvg, ToFixedMatchesTruncatingCast) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      kInf,
      kExactTermCap,
      std::nextafter(kExactTermCap, 0.0),
      std::nextafter(kExactTermCap, kInf),
      0.3,
      1.0 / 3.0,
  };
  // Values just below, at and above 1; where term·2^64 crosses 1 (2^-64),
  // 2^52 and 2^53 (the last places with a fraction to drop); and terms of
  // 2^52 and 2^53 themselves.
  for (const int e : {0, -64, -12, -11, 52, 53}) {
    const double p = std::ldexp(1.0, e);
    values.insert(values.end(),
                  {std::nextafter(p, 0.0), p, std::nextafter(p, kInf),
                   std::nextafter(std::nextafter(p, kInf), kInf)});
  }
  const std::size_t fixed = values.size();
  for (std::size_t i = 0; i < fixed; ++i) values.push_back(-values[i]);
  values.push_back(-0.0);

  // About a million more: every exponent from far below 2^-64 to past the
  // cap with random mantissas, and uniform draws over the capped range.
  std::mt19937_64 gen(20240607);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t r = gen();
    if (i % 4 == 3) {
      values.push_back(std::ldexp(static_cast<double>(r >> 11), -53) * 2.0 *
                           kExactTermCap - kExactTermCap);
      continue;
    }
    const std::uint64_t exponent = 1023 - 80 + (r >> 53) % 124;  // to 2^43
    values.push_back(std::bit_cast<double>((r & (std::uint64_t{1} << 63)) |
                                           (exponent << 52) |
                                           (gen() >> 12)));
  }

  std::size_t mismatches = 0;
  double first = 0.0;
  for (const double v : values) {
    if (to_fixed(v) != cast_to_fixed(v)) {
      if (mismatches++ == 0) first = v;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first at " << std::hexfloat << first;
  EXPECT_EQ(to_fixed(std::numeric_limits<double>::quiet_NaN()),
            static_cast<ExactTerm>(0));
  EXPECT_EQ(to_fixed(-std::numeric_limits<double>::quiet_NaN()),
            static_cast<ExactTerm>(0));
}

TEST(AggregationRule, ParseRoundTripsAndRejectsUnknown) {
  for (const AggregationRule r :
       {AggregationRule::kMean, AggregationRule::kTrimmedMean,
        AggregationRule::kCoordinateMedian, AggregationRule::kNormBoundedMean,
        AggregationRule::kMultiKrum}) {
    EXPECT_EQ(parse_aggregation_rule(to_string(r)), r);
  }
  EXPECT_THROW(parse_aggregation_rule("krum!"), Error);
  EXPECT_THROW(parse_aggregation_rule(""), Error);
}

TEST(RobustRules, MeanRuleStaysBitIdenticalToStreamingPath) {
  // kMean through the rule dispatch must be the exact int128 path, not a
  // float re-implementation.
  const std::vector<WeightUpdate> updates = {
      make_update(0, 300, {0.125f, -2.5f}),
      make_update(1, 100, {4.0f, 0.75f}),
      make_update(2, 57, {-1.25f, 3.5f}),
  };
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kMean;
  EXPECT_EQ(fed_avg(updates, cfg), fed_avg(updates));
}

TEST(RobustRules, TrimmedMeanDiscardsExtremes) {
  // One colluding pair of extreme values per side; trim 0.25 of 8 = 2 each
  // side, so both poisoned rows vanish and the mean is over honest rows.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 6; ++i) updates.push_back(make_update(i, 10, {1.0f}));
  updates.push_back(make_update(6, 10, {1000.0f}));
  updates.push_back(make_update(7, 10, {-1000.0f}));
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kTrimmedMean;
  cfg.trim_fraction = 0.25;
  const auto avg = fed_avg(updates, cfg);
  EXPECT_NEAR(avg[0], 1.0f, 1e-6f);
}

TEST(RobustRules, CoordinateMedianResistsNearHalfCorruption) {
  // 3 of 7 poisoned: the per-coordinate median still lands on an honest
  // value.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 4; ++i)
    updates.push_back(make_update(i, 10, {2.0f, -1.0f}));
  for (int i = 4; i < 7; ++i)
    updates.push_back(make_update(i, 10, {1e6f, -1e6f}));
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kCoordinateMedian;
  const auto avg = fed_avg(updates, cfg);
  EXPECT_FLOAT_EQ(avg[0], 2.0f);
  EXPECT_FLOAT_EQ(avg[1], -1.0f);
}

TEST(RobustRules, LeavesPastBufferCapFoldIntoExactMean) {
  // A robust rule buffers at most robust_buffer_cap leaves; the rest fold
  // into the exact mean, and the result combines the two parts by FedAvg
  // weight.
  std::vector<WeightUpdate> updates;
  const float values[] = {1.0f, 2.0f, 100.0f, 3.0f, 4.0f};
  for (int i = 0; i < 5; ++i) {
    updates.push_back(make_update(i, 10, {values[i]}));
  }
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kCoordinateMedian;
  EXPECT_FLOAT_EQ(fed_avg(updates, cfg)[0], 3.0f);  // all five buffered
  // Cap 2: the median of {1, 2} is 1.5 and the exact mean of {100, 3, 4}
  // is 107/3, so (2 * 1.5 + 3 * 107/3) / 5 = 22.
  cfg.robust_buffer_cap = 2;
  EXPECT_FLOAT_EQ(fed_avg(updates, cfg)[0], 22.0f);
}

TEST(RobustRules, OrderStatisticRulesIgnoreSampleCountInflation) {
  // An attacker claiming 10^6 samples must still get exactly one vote in
  // rank-based rules — otherwise sample_count is a free amplifier.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 4; ++i) updates.push_back(make_update(i, 10, {1.0f}));
  updates.push_back(make_update(4, 1'000'000, {1000.0f}));
  for (const AggregationRule rule : {AggregationRule::kTrimmedMean,
                                     AggregationRule::kCoordinateMedian}) {
    FedAvgConfig cfg;
    cfg.rule = rule;
    cfg.trim_fraction = 0.25;
    const auto avg = fed_avg(updates, cfg);
    EXPECT_NEAR(avg[0], 1.0f, 1e-6f) << to_string(rule);
  }
}

TEST(RobustRules, NormBoundedMeanAdaptiveBoundCapsOutlier) {
  // With norm_bound == 0 the bound is the median movement norm, so a huge
  // movement is rescaled onto the honest scale instead of dominating.
  const std::vector<float> reference = {0.0f, 0.0f};
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 4; ++i)
    updates.push_back(make_update(i, 10, {0.1f, 0.0f}));
  updates.push_back(make_update(4, 10, {1000.0f, 0.0f}));
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kNormBoundedMean;
  const auto avg = fed_avg(updates, cfg, &reference);
  // Outlier clamped to norm 0.1: mean <= (4*0.1 + 0.1)/5 = 0.1.
  EXPECT_LE(avg[0], 0.1f + 1e-6f);
  EXPECT_GT(avg[0], 0.0f);
}

TEST(RobustRules, MultiKrumExcludesColludingCluster) {
  // 6 honest near 1.0, 3 colluders at 50.0: with f = 3 the colluders score
  // worse (their n-f-2 = 4 nearest neighbours include honest rows far
  // away) and none is selected.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 6; ++i) {
    updates.push_back(
        make_update(i, 10, {1.0f + 0.01f * static_cast<float>(i)}));
  }
  for (int i = 6; i < 9; ++i) updates.push_back(make_update(i, 10, {50.0f}));
  FedAvgConfig cfg;
  cfg.rule = AggregationRule::kMultiKrum;
  cfg.krum_assumed_byzantine = 3;
  const auto avg = fed_avg(updates, cfg);
  EXPECT_GT(avg[0], 0.9f);
  EXPECT_LT(avg[0], 1.1f);
}

TEST(RobustRules, EveryRobustRuleHoldsUnderMinorityAttack) {
  // The f < n/2 contract from the threat model: 4 of 10 colluders pulling
  // toward +100 move every robust rule by at most the honest spread, while
  // plain mean is dragged over 39.
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 6; ++i) {
    updates.push_back(
        make_update(i, 10, {0.5f + 0.02f * static_cast<float>(i)}));
  }
  for (int i = 6; i < 10; ++i) {
    updates.push_back(make_update(i, 10, {100.0f}));
  }
  const std::vector<float> reference = {0.5f};
  const float honest_mean = 0.55f;

  FedAvgConfig mean_cfg;
  const auto mean = fed_avg(updates, mean_cfg, &reference);
  EXPECT_GT(mean[0], 39.0f);  // the attack works on plain FedAvg

  for (const AggregationRule rule :
       {AggregationRule::kTrimmedMean, AggregationRule::kCoordinateMedian,
        AggregationRule::kNormBoundedMean, AggregationRule::kMultiKrum}) {
    FedAvgConfig cfg;
    cfg.rule = rule;
    cfg.trim_fraction = 0.4;
    // 4 attackers at n = 10 sits past Krum's n >= 2f+3 guarantee (f is
    // clamped to 3), so the default m = n - f would admit one colluder;
    // a deployment assuming 4 Byzantine picks m = 6 survivors explicitly.
    cfg.krum_assumed_byzantine = 4;
    cfg.krum_select = 6;
    const auto avg = fed_avg(updates, cfg, &reference);
    EXPECT_NEAR(avg[0], honest_mean, 0.2f) << to_string(rule);
  }
}

TEST(RobustRules, DeterministicAcrossRepeats) {
  std::vector<WeightUpdate> updates;
  for (int i = 0; i < 9; ++i) {
    updates.push_back(make_update(i, 10 + i, {0.1f * static_cast<float>(i),
                                              1.0f - 0.05f * i}));
  }
  const std::vector<float> reference = {0.0f, 0.5f};
  for (const AggregationRule rule :
       {AggregationRule::kTrimmedMean, AggregationRule::kCoordinateMedian,
        AggregationRule::kNormBoundedMean, AggregationRule::kMultiKrum}) {
    FedAvgConfig cfg;
    cfg.rule = rule;
    const auto a = fed_avg(updates, cfg, &reference);
    const auto b = fed_avg(updates, cfg, &reference);
    EXPECT_EQ(a, b) << to_string(rule);
  }
}

TEST(WeightsHelpers, AxpyAndDistance) {
  std::vector<float> a = {1.0f, 2.0f};
  axpy(a, 2.0, {0.5f, 0.5f});
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
  EXPECT_DOUBLE_EQ(l2_distance({0, 0}, {3, 4}), 5.0);
  EXPECT_THROW(axpy(a, 1.0, {1.0f}), Error);
  EXPECT_THROW(l2_distance({1.0f}, {1.0f, 2.0f}), Error);
}

}  // namespace
}  // namespace evfl::fl
