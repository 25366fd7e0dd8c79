#include "anomaly/threshold.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace evfl::anomaly {
namespace {

TEST(Percentile, KnownValues) {
  const std::vector<float> v = {1, 2, 3, 4, 5};
  EXPECT_FLOAT_EQ(percentile(v, 0.0), 1.0f);
  EXPECT_FLOAT_EQ(percentile(v, 100.0), 5.0f);
  EXPECT_FLOAT_EQ(percentile(v, 50.0), 3.0f);
  EXPECT_FLOAT_EQ(percentile(v, 25.0), 2.0f);
  // Interpolated rank: 98% of (n-1)=4 -> 3.92 -> 4 + 0.92*(5-4).
  EXPECT_NEAR(percentile(v, 98.0), 4.92f, 1e-4f);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_FLOAT_EQ(percentile({5, 1, 3, 2, 4}, 50.0), 3.0f);
}

TEST(Percentile, SingleElement) {
  EXPECT_FLOAT_EQ(percentile({7.0f}, 98.0), 7.0f);
}

TEST(Percentile, Validation) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0f}, -1.0), Error);
  EXPECT_THROW(percentile({1.0f}, 101.0), Error);
}

TEST(Median, OddAndEven) {
  EXPECT_FLOAT_EQ(median({3, 1, 2}), 2.0f);
  EXPECT_FLOAT_EQ(median({4, 1, 2, 3}), 2.5f);
}

TEST(Threshold, PercentileRule) {
  ThresholdRule rule{ThresholdKind::kPercentile, 98.0};
  std::vector<float> scores(100);
  for (std::size_t i = 0; i < 100; ++i) scores[i] = static_cast<float>(i);
  const float t = compute_threshold(scores, rule);
  EXPECT_NEAR(t, 97.02f, 0.01f);
  // ~2% of training scores exceed the threshold by construction.
  std::size_t above = 0;
  for (float s : scores) above += (s > t);
  EXPECT_EQ(above, 2u);
}

TEST(Threshold, MeanStdRule) {
  ThresholdRule rule{ThresholdKind::kMeanStd, 2.0};
  const std::vector<float> scores = {2, 4, 4, 4, 5, 5, 7, 9};  // mean 5 std 2
  EXPECT_NEAR(compute_threshold(scores, rule), 9.0f, 1e-4f);
}

TEST(Threshold, MadRuleRobustToOutlier) {
  // MAD must barely move when one huge outlier joins the scores.
  ThresholdRule rule{ThresholdKind::kMad, 3.0};
  std::vector<float> base = {1, 2, 3, 4, 5, 6, 7};
  const float t1 = compute_threshold(base, rule);
  base.push_back(1000.0f);
  const float t2 = compute_threshold(base, rule);
  EXPECT_LT(std::abs(t2 - t1), 3.0f);

  // mean+k*std explodes under the same contamination.
  ThresholdRule msd{ThresholdKind::kMeanStd, 3.0};
  std::vector<float> base2 = {1, 2, 3, 4, 5, 6, 7};
  const float m1 = compute_threshold(base2, msd);
  base2.push_back(1000.0f);
  const float m2 = compute_threshold(base2, msd);
  EXPECT_GT(m2 - m1, 100.0f);
}

TEST(Threshold, SingleElementScoresUnderEveryRule) {
  // One training score: whatever the rule, the spread is zero and the
  // threshold is the score itself.
  const std::vector<float> one = {5.0f};
  EXPECT_FLOAT_EQ(
      compute_threshold(one, {ThresholdKind::kPercentile, 98.0}), 5.0f);
  EXPECT_FLOAT_EQ(compute_threshold(one, {ThresholdKind::kMeanStd, 3.0}),
                  5.0f);
  EXPECT_FLOAT_EQ(compute_threshold(one, {ThresholdKind::kMad, 3.0}), 5.0f);
}

TEST(Threshold, AllEqualScoresMadIsZero) {
  // Degenerate distribution: every deviation from the median is zero, so
  // mad == 0 and the threshold collapses to the median — it must not go
  // below it (which would flag the entire constant series) or NaN out.
  const std::vector<float> flat = {3.0f, 3.0f, 3.0f, 3.0f};
  const float t = compute_threshold(flat, {ThresholdKind::kMad, 3.0});
  EXPECT_FLOAT_EQ(t, 3.0f);
}

TEST(Threshold, AllEqualScoresMeanStdIsZeroSpread) {
  const std::vector<float> flat = {3.0f, 3.0f, 3.0f};
  EXPECT_FLOAT_EQ(compute_threshold(flat, {ThresholdKind::kMeanStd, 2.0}),
                  3.0f);
}

TEST(Threshold, EmptyScoresThrow) {
  ThresholdRule rule;
  EXPECT_THROW(compute_threshold({}, rule), Error);
}

TEST(Threshold, Names) {
  EXPECT_EQ(to_string(ThresholdKind::kPercentile), "percentile");
  EXPECT_EQ(to_string(ThresholdKind::kMeanStd), "mean+k*std");
  EXPECT_EQ(to_string(ThresholdKind::kMad), "mad");
}

// ---- Non-finite score handling ---------------------------------------------
// Regression: scores from a just-initialized or poisoned model can be
// NaN/Inf, and a NaN reaching std::sort is undefined behaviour (NaN
// comparisons break strict weak ordering) — the finite entries end up
// scrambled too.  Both evaluation modes must drop non-finite scores with an
// accounted count, never sort or average them.

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(Percentile, NonFiniteDroppedWithCount) {
  std::size_t dropped = 0;
  EXPECT_FLOAT_EQ(percentile({kNan, 5, 1, kInf, 3, 2, -kInf, 4}, 50.0,
                             &dropped),
                  3.0f);
  EXPECT_EQ(dropped, 3u);
  // The median over the finite entries, not over a NaN-scrambled order.
  EXPECT_FLOAT_EQ(percentile({1, 2, kNan, 3}, 100.0), 3.0f);
}

TEST(Percentile, AllNonFiniteThrows) {
  EXPECT_THROW(percentile({kNan, kInf, -kInf}, 50.0), Error);
}

TEST(Threshold, NonFiniteDroppedUnderEveryRule) {
  const std::vector<float> clean = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<float> dirty = clean;
  dirty.insert(dirty.begin() + 3, kNan);
  dirty.push_back(kInf);
  for (ThresholdKind kind :
       {ThresholdKind::kPercentile, ThresholdKind::kMeanStd,
        ThresholdKind::kMad}) {
    const ThresholdRule rule{kind, kind == ThresholdKind::kPercentile ? 90.0
                                                                      : 2.0};
    std::size_t dropped = 0;
    const float got = compute_threshold(dirty, rule, &dropped);
    EXPECT_EQ(dropped, 2u) << to_string(kind);
    EXPECT_FLOAT_EQ(got, compute_threshold(clean, rule)) << to_string(kind);
    EXPECT_TRUE(std::isfinite(got)) << to_string(kind);
  }
}

TEST(Threshold, AllNonFiniteScoresThrow) {
  EXPECT_THROW(compute_threshold({kNan, kNan}, ThresholdRule{}), Error);
}

// ---- IncrementalThreshold ---------------------------------------------------

/// Deterministic uniform [0, 1) stream for convergence checks.
float uniform01(std::uint64_t i) {
  std::uint64_t x = i + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<float>(x >> 11) * 0x1.0p-53f;
}

TEST(IncrementalThreshold, ExactForSmallSamples) {
  // Below the five-marker warmup the estimator must be the exact
  // interpolated percentile of the observed prefix, at counts 1-4, for
  // mixed, descending, ascending, equal and negative arrival orders.
  for (const std::vector<float>& arrivals :
       std::vector<std::vector<float>>{{0.4f, 0.9f, 0.1f, 0.6f},
                                       {0.9f, 0.6f, 0.4f, 0.1f},
                                       {0.1f, 0.4f, 0.6f, 0.9f},
                                       {0.5f, 0.5f, 0.5f, 0.5f},
                                       {0.2f, 0.2f, 0.7f, 0.2f},
                                       {-0.2f, -0.7f, -0.1f, -0.5f},
                                       {-0.3f, 0.8f, -0.9f, 0.0f}}) {
    for (const double pct : {0.0, 50.0, 75.0, 100.0}) {
      IncrementalThreshold est({ThresholdKind::kPercentile, pct});
      std::vector<float> seen;
      for (const float v : arrivals) {
        est.observe(v);
        seen.push_back(v);
        EXPECT_FLOAT_EQ(est.value(), percentile(seen, pct))
            << "pct " << pct << ", count " << seen.size() << ", first "
            << arrivals[0];
      }
      EXPECT_EQ(est.count(), 4u);
    }
  }
}

TEST(IncrementalThreshold, P2ConvergesToExactPercentile) {
  for (double pct : {95.0, 99.5}) {
    IncrementalThreshold est({ThresholdKind::kPercentile, pct});
    std::vector<float> all;
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const float v = uniform01(i);
      est.observe(v);
      all.push_back(v);
    }
    const float exact = percentile(all, pct);
    EXPECT_NEAR(est.value(), exact, 0.02f) << "pct=" << pct;
  }
}

TEST(IncrementalThreshold, WelfordMatchesBatchMeanStd) {
  const ThresholdRule rule{ThresholdKind::kMeanStd, 3.0};
  IncrementalThreshold est(rule);
  std::vector<float> all;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const float v = uniform01(i) * 4.0f - 1.0f;
    est.observe(v);
    all.push_back(v);
  }
  // Welford in double vs the batch float pass: same population-stddev
  // definition, so they agree to float accumulation error.
  EXPECT_NEAR(est.value(), compute_threshold(all, rule), 2e-3f);
}

TEST(IncrementalThreshold, MadMatchesBatchUnderReservoirCap) {
  // Fewer observations than the reservoir capacity: the reservoir holds
  // every score, so the incremental MAD is the batch MAD exactly.
  const ThresholdRule rule{ThresholdKind::kMad, 3.0};
  IncrementalThreshold est(rule);
  std::vector<float> all;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const float v = uniform01(i);
    est.observe(v);
    all.push_back(v);
  }
  EXPECT_FLOAT_EQ(est.value(), compute_threshold(all, rule));
}

TEST(IncrementalThreshold, MadRobustAtScaleWithBoundedMemory) {
  // Past the cap the reservoir subsamples; the estimate stays close to the
  // batch value and, like the batch rule, shrugs off an outlier burst.
  const ThresholdRule rule{ThresholdKind::kMad, 3.0};
  IncrementalThreshold est(rule);
  std::vector<float> all;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const float v = i % 100 == 99 ? 1000.0f : uniform01(i);
    est.observe(v);
    all.push_back(v);
  }
  EXPECT_NEAR(est.value(), compute_threshold(all, rule), 0.15f);
}

TEST(IncrementalThreshold, RejectsNonFiniteWithCount) {
  IncrementalThreshold est({ThresholdKind::kMeanStd, 2.0});
  EXPECT_TRUE(est.observe(1.0f));
  EXPECT_FALSE(est.observe(kNan));
  EXPECT_FALSE(est.observe(kInf));
  EXPECT_TRUE(est.observe(3.0f));
  EXPECT_EQ(est.count(), 2u);
  EXPECT_EQ(est.nonfinite_dropped(), 2u);
  // mean 2, population std 1 -> 2 + 2*1; the NaN/Inf never entered.
  EXPECT_NEAR(est.value(), 4.0f, 1e-5f);
}

TEST(IncrementalThreshold, ValueBeforeAnyScoreThrows) {
  IncrementalThreshold est;
  EXPECT_THROW(est.value(), Error);
  EXPECT_FALSE(est.observe(kNan));
  EXPECT_THROW(est.value(), Error);  // a dropped score does not arm it
}

TEST(IncrementalThreshold, ResetForgetsObservationsKeepsRule) {
  IncrementalThreshold est({ThresholdKind::kMeanStd, 2.0});
  for (int i = 1; i <= 10; ++i) est.observe(static_cast<float>(i));
  EXPECT_FALSE(est.observe(kNan));
  ASSERT_GT(est.count(), 0u);

  est.reset();
  EXPECT_EQ(est.count(), 0u);
  EXPECT_THROW(est.value(), Error);  // fully disarmed, not stale
  EXPECT_EQ(est.rule().kind, ThresholdKind::kMeanStd);
  // The drop counter audits inputs, not estimator state: it survives.
  EXPECT_EQ(est.nonfinite_dropped(), 1u);

  // Re-seeding after reset sees ONLY the new scores.
  EXPECT_TRUE(est.observe(1.0f));
  EXPECT_TRUE(est.observe(3.0f));
  EXPECT_NEAR(est.value(), 4.0f, 1e-5f);  // mean 2 + 2 * std 1
}

TEST(IncrementalThreshold, ResetMatchesFreshEstimatorUnderEveryRule) {
  for (ThresholdKind kind :
       {ThresholdKind::kPercentile, ThresholdKind::kMeanStd,
        ThresholdKind::kMad}) {
    const ThresholdRule rule{kind, kind == ThresholdKind::kPercentile ? 90.0
                                                                      : 2.0};
    IncrementalThreshold recycled(rule);
    for (int i = 0; i < 500; ++i) {
      recycled.observe(static_cast<float>((i * 37) % 100));
    }
    recycled.reset();
    IncrementalThreshold fresh(rule);
    for (int i = 0; i < 64; ++i) {
      const float s = 1.0f + 0.01f * static_cast<float>(i % 7);
      recycled.observe(s);
      fresh.observe(s);
    }
    EXPECT_EQ(recycled.value(), fresh.value()) << to_string(kind);
  }
}

// ---- DriftProbe -------------------------------------------------------------

TEST(DriftProbe, DisabledProbeNeverTrips) {
  DriftProbe probe;
  EXPECT_FALSE(probe.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(probe.observe(i < 50 ? 1.0f : 100.0f));
  }
}

TEST(DriftProbe, Validation) {
  EXPECT_THROW(DriftProbe(0.0, 64), Error);
  EXPECT_THROW(DriftProbe(-1.0, 64), Error);
  EXPECT_THROW(DriftProbe(4.0, 4), Error);  // window floor is 8
}

TEST(DriftProbe, StationaryScoresStayQuiet) {
  DriftProbe probe(5.0, 16);
  // Deterministic noisy-but-stationary scores around 1.0.
  for (int i = 0; i < 400; ++i) {
    const float s =
        1.0f + 0.1f * std::sin(0.7f * static_cast<float>(i)) +
        0.05f * static_cast<float>((i * 2654435761u >> 24) & 0xFF) / 255.0f;
    EXPECT_FALSE(probe.observe(s)) << "i=" << i;
  }
  EXPECT_EQ(probe.reseeds(), 0u);
}

TEST(DriftProbe, SustainedShiftTripsAndReseedRebuildsEstimator) {
  constexpr std::size_t kWindow = 16;
  DriftProbe probe(4.0, kWindow);
  IncrementalThreshold est({ThresholdKind::kMeanStd, 2.0});

  // Baseline: enough history for the window AND a full graduated baseline.
  for (int i = 0; i < 100; ++i) {
    const float s = 1.0f + 0.1f * std::sin(0.5f * static_cast<float>(i));
    est.observe(s);
    ASSERT_FALSE(probe.observe(s)) << "baseline i=" << i;
  }
  const float before = est.value();

  // Sustained shift: scores jump 5x.  The probe must trip once the window
  // has seen enough post-shift mass — within one window of the shift
  // (mean-shift this large saturates the z-bound well before that).
  bool tripped = false;
  for (std::size_t i = 0; i < kWindow; ++i) {
    const float s = 5.0f + 0.1f * std::sin(0.5f * static_cast<float>(i));
    est.observe(s);
    if (probe.observe(s)) {
      tripped = true;
      break;
    }
  }
  ASSERT_TRUE(tripped);

  probe.reseed(est);
  EXPECT_EQ(probe.reseeds(), 1u);
  // The estimator was rebuilt from the trailing window only: its count is
  // exactly the window, not 100+ samples of pre-shift history.
  EXPECT_EQ(est.count(), kWindow);
  EXPECT_GT(est.value(), before);

  // The first trip fires while the window still holds mostly pre-shift
  // scores, so the re-seeded baseline may lag the new level; each further
  // window either re-trips (re-seeding onto progressively newer history)
  // or goes quiet.  Convergence, not single-shot: within a handful of
  // windows the baseline IS the new level and the probe settles.
  std::size_t quiet_streak = 0;
  for (std::size_t i = 0; i < 8 * kWindow && quiet_streak < 2 * kWindow;
       ++i) {
    const float s = 5.0f + 0.1f * std::sin(0.5f * static_cast<float>(i));
    est.observe(s);
    if (probe.observe(s)) {
      probe.reseed(est);
      quiet_streak = 0;
    } else {
      ++quiet_streak;
    }
  }
  EXPECT_GE(quiet_streak, 2 * kWindow);  // settled at the new level
  EXPECT_LE(probe.reseeds(), 4u);        // geometric, not thrashing
  EXPECT_GT(est.value(), 4.0f);  // the settled state reflects the new level
}

TEST(DriftProbe, ReseedNeverAllocatesBeyondConstruction) {
  // The contract test proper lives in bench_stream --check-allocs; here we
  // at least pin that reseed() works repeatedly on the same storage.
  DriftProbe probe(3.0, 8);
  IncrementalThreshold est({ThresholdKind::kMad, 3.0});
  float level = 1.0f;
  std::uint64_t reseeds = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      const float s = level + 0.01f * static_cast<float>(i % 5);
      est.observe(s);
      if (probe.observe(s)) {
        probe.reseed(est);
        ++reseeds;
      }
    }
    level *= 8.0f;
  }
  EXPECT_EQ(probe.reseeds(), reseeds);
  EXPECT_GE(reseeds, 2u);  // every level jump after the first should trip
}

}  // namespace
}  // namespace evfl::anomaly
