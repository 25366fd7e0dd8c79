#include "stream/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "forecast/model.hpp"
#include "stream/pipeline.hpp"
#include "stream/queue.hpp"
#include "tensor/rng.hpp"

namespace evfl::stream {
namespace {

using forecast::Engine;
using forecast::ForecasterConfig;

// ---- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueue, FifoWithinBound) {
  BoundedQueue<int> q(8, 4);
  for (int i = 0; i < 6; ++i) q.push(i);
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.dropped(), 0u);
  std::vector<int> out;
  EXPECT_EQ(q.drain(out), 6u);
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, DropsOldestPastMaxWithCount) {
  BoundedQueue<int> q(4, 2);
  for (int i = 0; i < 10; ++i) q.push(i);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.dropped(), 6u);
  // The freshest entries survive back-pressure, in order.
  std::vector<int> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 6 + i);
}

TEST(BoundedQueue, StorageGrowsUnderBurstAndShrinksOnDrain) {
  BoundedQueue<int> q(64, 4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 40; ++i) q.push(i);
  EXPECT_GE(q.capacity(), 40u);
  EXPECT_EQ(q.dropped(), 0u);  // growth absorbed the burst, nothing lost
  std::vector<int> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.capacity(), 4u);  // burst memory returned
  // Steady state within the watermark never grows the storage again.
  for (int i = 0; i < 4; ++i) q.push(i);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(BoundedQueue, Validation) {
  EXPECT_THROW(BoundedQueue<int>(0, 1), Error);
  EXPECT_THROW(BoundedQueue<int>(4, 8), Error);
  EXPECT_THROW(BoundedQueue<int>(4, 0), Error);
}

// ---- Single-producer fixtures -----------------------------------------------

/// Small-but-real forecaster (same shape as the engine tests).
ForecasterConfig small_config() {
  ForecasterConfig cfg;
  cfg.lstm_units = 16;
  cfg.dense_units = 6;
  cfg.sequence_length = 12;
  return cfg;
}

/// Identity scaler: raw values are already in [0, 1].
data::MinMaxScaler identity_scaler() {
  data::MinMaxScaler s;
  s.fit({0.0f, 1.0f});
  return s;
}

/// Deterministic bounded series: diurnal-ish sine plus a small hash ripple.
std::vector<float> make_series(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull + seed;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    const float noise =
        static_cast<float>((x >> 40) & 0xFFFF) / 65535.0f;  // [0, 1)
    v[i] = 0.5f + 0.3f * std::sin(0.3f * static_cast<float>(i + seed)) +
           0.05f * (noise - 0.5f);
  }
  return v;
}

struct EngineFixture {
  ForecasterConfig model = small_config();
  Engine engine;

  explicit EngineFixture(std::uint64_t seed = 7)
      : engine(model) {
    tensor::Rng rng(seed);
    nn::Sequential net = forecast::make_forecaster(model, rng);
    engine.publish(net.get_weights());
  }
};

/// The single-producer detector: a one-shard pipeline; the caller flushes.
ShardedConfig one_shard(const StreamConfig& cfg) {
  ShardedConfig sc;
  sc.stream = cfg;
  return sc;
}

// ---- Streaming vs batch equivalence ----------------------------------------

TEST(StreamPipeline, FrozenThresholdBitIdenticalToBatch) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t zones = 3;
  const std::size_t n = 120;

  StreamConfig cfg;
  cfg.max_zones = zones;
  cfg.repair_inputs = false;  // batch scores the raw series; so must we
  ShardedPipeline pipe(fx.engine, one_shard(cfg));

  std::vector<std::vector<float>> series;
  std::vector<std::vector<float>> expected;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 100 + z));
    expected.push_back(batch_scores(fx.engine, series[z]));
    pipe.add_zone(identity_scaler());
    // Freeze at the 90th percentile of the batch scores: the stream must
    // reproduce the batch detector's anomaly set exactly.
    pipe.freeze_threshold(static_cast<std::uint32_t>(z),
                          anomaly::percentile(expected[z], 90.0));
  }

  // Interleave zones the way a real feed would, flushing every 32 samples.
  std::size_t ingested = 0;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t z = 0; z < zones; ++z) {
      pipe.ingest(static_cast<std::uint32_t>(z), t, series[z][t]);
      if (++ingested % 32 == 0) pipe.flush();
    }
  }
  pipe.flush();

  std::vector<AnomalyEvent> events;
  pipe.drain(events);

  // Build the batch detector's anomaly set per zone.
  std::set<std::pair<std::uint32_t, std::uint64_t>> batch_set;
  for (std::size_t z = 0; z < zones; ++z) {
    const float thr = pipe.threshold(static_cast<std::uint32_t>(z));
    for (std::size_t i = 0; i < expected[z].size(); ++i) {
      if (expected[z][i] > thr) {
        batch_set.insert({static_cast<std::uint32_t>(z),
                          static_cast<std::uint64_t>(i + lookback)});
      }
    }
  }
  ASSERT_FALSE(batch_set.empty()) << "degenerate fixture: nothing flagged";

  std::set<std::pair<std::uint32_t, std::uint64_t>> stream_set;
  for (const AnomalyEvent& ev : events) {
    stream_set.insert({ev.zone, ev.t});
    // Same window, same wide engine tier: the streamed score must carry
    // the exact bits of the batch score, not merely be close.
    ASSERT_GE(ev.t, lookback);
    EXPECT_EQ(ev.score, expected[ev.zone][ev.t - lookback]);
    EXPECT_EQ(ev.repaired, ev.value);  // repair disabled
  }
  EXPECT_EQ(stream_set, batch_set);

  const StreamStats st = pipe.stats();
  EXPECT_EQ(st.samples_total, zones * n);
  EXPECT_EQ(st.not_ready_total, zones * lookback);
  EXPECT_EQ(st.scored_total, zones * (n - lookback));
  EXPECT_EQ(st.events_total, events.size());
  EXPECT_EQ(st.events_dropped, 0u);
}

TEST(StreamPipeline, SingleZoneStillMatchesBatch) {
  // One zone -> every round is a 1-row engine batch, while batch scoring
  // runs wide batches; the scores must still be bit-equal.
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t n = 60;
  const std::vector<float> series = make_series(n, 5);
  const std::vector<float> expected = batch_scores(fx.engine, series);

  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.repair_inputs = false;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, anomaly::percentile(expected, 85.0));

  for (std::size_t t = 0; t < n; ++t) {
    pipe.ingest(0, t, series[t]);
    if ((t + 1) % 7 == 0) pipe.flush();  // odd cadence: mid-series cuts
  }
  pipe.flush();

  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  const float thr = pipe.threshold(0);
  std::size_t batch_flagged = 0;
  for (float s : expected) batch_flagged += (s > thr);
  ASSERT_EQ(events.size(), batch_flagged);
  for (const AnomalyEvent& ev : events) {
    EXPECT_EQ(ev.score, expected[ev.t - lookback]);
  }

  // Nothing pads a 1-row batch: an engine that takes one row at a time
  // serves the same stream and batch scores.
  forecast::EngineConfig one_row;
  one_row.max_batch = 1;
  Engine narrow(fx.model, one_row);
  tensor::Rng rng(7);
  narrow.publish(forecast::make_forecaster(fx.model, rng).get_weights());
  EXPECT_EQ(batch_scores(narrow, series), expected);
  EXPECT_NO_THROW(ShardedPipeline(narrow, one_shard(cfg)));
}

// ---- Not-ready / churn semantics -------------------------------------------

TEST(StreamPipeline, NoScoreUntilLookbackSamples) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;

  StreamConfig cfg;
  cfg.max_zones = 1;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, 0.0f);  // everything scored would be flagged

  // First lookback samples: never scored, never flagged — a zero-padded
  // window would fire spurious anomalies right here.
  for (std::size_t t = 0; t < lookback; ++t) {
    pipe.ingest(0, t, 0.9f);
    pipe.flush();
    EXPECT_EQ(pipe.stats().scored_total, 0u) << "t=" << t;
    EXPECT_EQ(pipe.stats().events_total, 0u) << "t=" << t;
  }
  EXPECT_EQ(pipe.stats().not_ready_total, lookback);
  EXPECT_TRUE(pipe.ready(0));

  // Sample lookback is the first with a real window behind it.
  pipe.ingest(0, lookback, 0.9f);
  pipe.flush();
  EXPECT_EQ(pipe.stats().scored_total, 1u);
}

TEST(StreamPipeline, GapResetsWindowToNotReady) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;

  StreamConfig cfg;
  cfg.max_zones = 1;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, 1e6f);

  const std::vector<float> series = make_series(4 * lookback, 3);
  std::size_t t = 0;
  for (; t < lookback + 4; ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();
  const StreamStats before = pipe.stats();
  EXPECT_EQ(before.scored_total, 4u);
  EXPECT_EQ(before.gaps_total, 0u);

  // Churn: the zone vanishes and comes back 10 ticks later.  The window no
  // longer holds this sample's actual history, so scoring must stop until
  // lookback fresh in-order samples have refilled it.
  t += 10;
  const std::size_t resume = t;
  for (; t < resume + lookback + 2; ++t) pipe.ingest(0, t, series[t % series.size()]);
  pipe.flush();
  const StreamStats after = pipe.stats();
  EXPECT_EQ(after.gaps_total, 1u);
  EXPECT_EQ(after.not_ready_total, before.not_ready_total + lookback);
  EXPECT_EQ(after.scored_total, before.scored_total + 2);
}

// ---- Thresholds -------------------------------------------------------------

TEST(StreamPipeline, UnarmedZoneNeverFlags) {
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.adapt_thresholds = false;  // never arms on its own
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  EXPECT_TRUE(std::isnan(pipe.threshold(0)));

  const std::vector<float> series = make_series(50, 9);
  for (std::size_t t = 0; t < series.size(); ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();
  EXPECT_GT(pipe.stats().scored_total, 0u);
  EXPECT_EQ(pipe.stats().events_total, 0u);
}

TEST(StreamPipeline, SeededThresholdAdaptsOnline) {
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.threshold = {anomaly::ThresholdKind::kPercentile, 99.0};
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());

  // Seed from a clean calibration run, then keep streaming: the estimator
  // must keep folding scores in (count grows) and stay finite.
  const std::vector<float> series = make_series(200, 21);
  std::vector<float> calib(series.begin(), series.begin() + 80);
  pipe.seed_threshold(0, batch_scores(fx.engine, calib));
  const std::size_t seeded_count = pipe.estimator(0).count();
  ASSERT_GT(seeded_count, 0u);
  const float seeded = pipe.threshold(0);
  ASSERT_TRUE(std::isfinite(seeded));

  for (std::size_t t = 0; t < series.size(); ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();
  EXPECT_GT(pipe.estimator(0).count(), seeded_count);
  EXPECT_TRUE(std::isfinite(pipe.threshold(0)));
}

TEST(StreamPipeline, AdaptationWinsorizesFlaggedScores) {
  // An attack burst must not drag the adaptive threshold past later
  // attacks: flagged scores fold in clamped at twice the threshold that
  // flagged them, so even a plateau of attack-sized scores (hundreds of
  // times the seeded threshold) moves the estimate a bounded amount and
  // every plateau sample keeps getting flagged.
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.threshold = {anomaly::ThresholdKind::kPercentile, 98.0};
  cfg.repair_inputs = false;  // raw windows; isolate the adaptation path
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());

  const std::vector<float> series = make_series(400, 33);
  pipe.seed_threshold(
      0, batch_scores(fx.engine,
                      {series.begin(), series.begin() + 120}));
  const float seeded = pipe.threshold(0);
  ASSERT_TRUE(std::isfinite(seeded));

  // Clean prefix, a 10-sample attack plateau far outside [0, 1], clean
  // tail.  Scores at the plateau are ~(25 - forecast)^2, orders of
  // magnitude above any clean score.
  std::size_t t = 0;
  for (; t < 200; ++t) pipe.ingest(0, t, series[t]);
  const std::uint64_t attack_start = t;
  for (std::size_t k = 0; k < 10; ++k, ++t) pipe.ingest(0, t, 25.0f);
  const std::uint64_t attack_end = t;
  for (; t < series.size(); ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();

  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  std::set<std::uint64_t> flagged;
  for (const AnomalyEvent& ev : events) flagged.insert(ev.t);
  for (std::uint64_t a = attack_start; a < attack_end; ++a) {
    EXPECT_TRUE(flagged.count(a) != 0) << "attack sample " << a
                                       << " not flagged";
  }
  // Bounded drag: the final threshold stays a small multiple of the
  // seeded value, far below the plateau scores (>= (25-1)^2).  Unclamped
  // P² adaptation lands in the hundreds here.
  const float final_thr = pipe.threshold(0);
  EXPECT_TRUE(std::isfinite(final_thr));
  EXPECT_LT(final_thr, 16.0f * seeded + 0.5f);
  EXPECT_LT(final_thr, 100.0f);
}

// ---- Online repair ----------------------------------------------------------

TEST(StreamPipeline, RepairHoldsNearestTrustworthyValue) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;

  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.repair_inputs = true;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  // Generous frozen threshold: only the injected spike gets flagged.
  const std::vector<float> series = make_series(3 * lookback, 31);
  pipe.freeze_threshold(0, anomaly::percentile(batch_scores(fx.engine, series),
                                               100.0) +
                               0.01f);

  std::size_t t = 0;
  for (; t < 2 * lookback; ++t) pipe.ingest(0, t, series[t]);
  const float last_clean = series[t - 1];
  pipe.ingest(0, t++, 12.0f);  // attack spike, way out of [0, 1]
  pipe.flush();

  std::vector<AnomalyEvent> events;
  ASSERT_EQ(pipe.drain(events), 1u);
  EXPECT_FLOAT_EQ(events[0].value, 12.0f);
  // kLinear at the live edge has no right anchor: it holds the newest
  // trustworthy neighbour, the paper's rule truncated to the past.
  EXPECT_FLOAT_EQ(events[0].repaired, last_clean);
  EXPECT_EQ(pipe.stats().repaired_total, 1u);

  // The repaired value — not the spike — extended the window, so the next
  // samples score against a sane history and stay unflagged.
  for (std::size_t k = 0; k < 4; ++k, ++t) pipe.ingest(0, t, series[t % series.size()]);
  pipe.flush();
  events.clear();
  EXPECT_EQ(pipe.drain(events), 0u);
}

TEST(StreamPipeline, NonFiniteInputNeverPoisonsScoring) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;

  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.repair_inputs = true;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, 1e6f);

  const std::vector<float> series = make_series(2 * lookback + 8, 17);
  std::size_t t = 0;
  for (; t < lookback + 2; ++t) pipe.ingest(0, t, series[t]);
  pipe.ingest(0, t++, std::numeric_limits<float>::quiet_NaN());
  for (; t < series.size(); ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();

  const StreamStats st = pipe.stats();
  EXPECT_EQ(st.nonfinite_inputs, 1u);
  EXPECT_EQ(st.nonfinite_scores, 1u);  // that sample's own score is NaN
  EXPECT_EQ(st.events_total, 0u);      // NaN never flags
  // Repair replaced it in the window, so streaming continued: every later
  // sample was scored (none went not-ready after the glitch).
  EXPECT_EQ(st.not_ready_total, lookback);
  EXPECT_EQ(st.gaps_total, 0u);
}

// ---- Back-pressure ----------------------------------------------------------

TEST(StreamPipeline, BackPressureDropsOldestAndCounts) {
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.repair_inputs = false;
  cfg.queue_max = 4;
  cfg.queue_shrink = 2;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, 0.0f);  // every scored sample becomes an event

  const std::size_t n = 40;
  const std::vector<float> series = make_series(n, 13);
  for (std::size_t t = 0; t < n; ++t) pipe.ingest(0, t, series[t]);
  pipe.flush();

  const StreamStats st = pipe.stats();
  const std::size_t scored = st.scored_total;
  ASSERT_GT(scored, cfg.queue_max);
  EXPECT_EQ(st.events_total, scored);
  EXPECT_EQ(st.events_dropped, scored - cfg.queue_max);

  // Only the freshest events survive, still in order.
  std::vector<AnomalyEvent> events;
  EXPECT_EQ(pipe.drain(events), cfg.queue_max);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t, n - cfg.queue_max + i);
  }
  EXPECT_EQ(pipe.stats().events_dropped, scored - cfg.queue_max);
}

// ---- Flush cadence and validation -------------------------------------------

TEST(StreamPipeline, IngestAutoFlushesAtBatch) {
  // Ingest never flushes, even once flush_batch samples wait: the caller
  // owns the cadence.
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 2;
  cfg.flush_batch = 8;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.add_zone(identity_scaler());

  for (std::size_t t = 0; t < 7; ++t) pipe.ingest(0, t, 0.5f);
  pipe.ingest(1, 0, 0.5f);
  EXPECT_EQ(pipe.stats().flushes_total, 0u);
  EXPECT_EQ(pipe.stats().scored_total, 0u);
  EXPECT_EQ(pipe.flush(), 8u);
  EXPECT_EQ(pipe.stats().flushes_total, 1u);
}

TEST(StreamPipeline, Validation) {
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  EXPECT_THROW(pipe.ingest(0, 0, 1.0f), Error);  // no zone yet
  pipe.add_zone(identity_scaler());
  EXPECT_THROW(pipe.add_zone(identity_scaler()), Error);  // max_zones
  EXPECT_THROW(pipe.freeze_threshold(0, std::nanf("")), Error);
  EXPECT_THROW(pipe.freeze_threshold(7, 1.0f), Error);
  EXPECT_THROW(pipe.threshold(7), Error);
  data::MinMaxScaler unfitted;
  StreamConfig cfg2;
  cfg2.max_zones = 2;
  ShardedPipeline pipe2(fx.engine, one_shard(cfg2));
  EXPECT_THROW(pipe2.add_zone(unfitted), Error);

  // Engine too small for the zone fan-out.
  forecast::EngineConfig small_engine;
  small_engine.max_batch = 2;
  Engine engine2(fx.model, small_engine);
  StreamConfig wide;
  wide.max_zones = 64;
  EXPECT_THROW(ShardedPipeline(engine2, one_shard(wide)), Error);
}

// ---- Concurrent producer/consumer soak (TSan-exercised) ---------------------

TEST(StreamPipeline, ConcurrentDrainSoak) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t zones = 2;
  const std::size_t n = 1500;

  StreamConfig cfg;
  cfg.max_zones = zones;
  cfg.queue_max = 64;
  cfg.queue_shrink = 16;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  std::vector<std::vector<float>> series;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 40 + z));
    pipe.add_zone(identity_scaler());
    pipe.freeze_threshold(static_cast<std::uint32_t>(z), 1e-5f);  // busy queue
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    std::vector<AnomalyEvent> out;
    while (!done.load(std::memory_order_acquire)) {
      out.clear();
      drained.fetch_add(pipe.drain(out), std::memory_order_relaxed);
      std::this_thread::yield();
    }
    out.clear();
    drained.fetch_add(pipe.drain(out), std::memory_order_relaxed);
  });

  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t z = 0; z < zones; ++z) {
      // Periodic churn on zone 1: skip a tick every 400 samples.
      const std::uint64_t ts = z == 1 ? t + (t / 400) : t;
      pipe.ingest(static_cast<std::uint32_t>(z), ts, series[z][t]);
    }
    if (t % 8 == 7) pipe.flush();  // 16 samples per flush
  }
  pipe.flush();
  done.store(true, std::memory_order_release);
  consumer.join();

  const StreamStats st = pipe.stats();
  EXPECT_EQ(st.samples_total, zones * n);
  EXPECT_EQ(st.gaps_total, (n - 1) / 400);
  // Every event is either delivered or accounted as dropped — none vanish.
  EXPECT_EQ(drained.load() + st.events_dropped, st.events_total);
  // Zone 0 scores n - lookback samples; zone 1 pays a lookback refill after
  // each of its 3 gaps on top of the initial one: n - 4 * lookback.
  EXPECT_EQ(st.scored_total, 2 * n - 5 * lookback);
}

// ---- Drift-triggered threshold re-seeding -----------------------------------

/// Replay clean-then-shifted data through one adaptive zone and report how
/// it behaved after the sustained level shift.
struct DriftRunResult {
  std::uint64_t reseeds = 0;
  std::size_t tail_events = 0;  // flagged in the late post-shift region
  bool spike_flagged = false;   // the genuine anomaly after recovery
};

DriftRunResult run_drift_scenario(double drift_z) {
  EngineFixture fx;
  const std::size_t n_base = 300;   // stationary level
  const std::size_t n_shift = 400;  // sustained +0.5 level shift
  const std::size_t tail_start = 200;  // post-shift sample where we start
                                       // counting residual false alarms

  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.repair_inputs = false;  // keep score dynamics purely input-driven
  cfg.drift_z = drift_z;
  cfg.drift_window = 64;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());

  const std::vector<float> base = make_series(n_base + n_shift + 1, 23);
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < n_base; ++i, ++t) pipe.ingest(0, t, base[t]);
  // The regime change: every subsequent sample rides 0.5 higher, so
  // forecast errors (and scores) stay inflated indefinitely — exactly the
  // shape winsorized adaptation crawls through and a re-seed jumps through.
  const std::uint64_t spike_t = t + n_shift;
  for (std::size_t i = 0; i < n_shift; ++i, ++t) {
    pipe.ingest(0, t, base[t] + 0.5f);
  }
  pipe.ingest(0, t, base[t] + 2.5f);  // genuine anomaly on the new level
  pipe.flush();

  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  DriftRunResult r;
  r.reseeds = pipe.stats().reseeds_total;
  for (const AnomalyEvent& ev : events) {
    if (ev.t == spike_t) r.spike_flagged = true;
    if (ev.t >= n_base + tail_start && ev.t < spike_t) ++r.tail_events;
  }
  return r;
}

TEST(StreamDrift, ReseedRecoversFasterAfterLevelShiftWithoutRecallLoss) {
  const DriftRunResult off = run_drift_scenario(0.0);
  const DriftRunResult on = run_drift_scenario(4.0);

  // The probe is off by default and never fires when disarmed.
  EXPECT_EQ(off.reseeds, 0u);
  // Armed, the sustained shift must trigger at least one re-seed.
  EXPECT_GE(on.reseeds, 1u);

  // Recovery: by the tail of the shifted region the re-seeded threshold
  // has converged to the new score level, while pure winsorized
  // adaptation is still walking its P2 markers up — strictly fewer
  // residual false alarms with the probe armed.
  EXPECT_LT(on.tail_events, off.tail_events);

  // No recall loss: a genuine anomaly on the new level is still flagged.
  EXPECT_TRUE(on.spike_flagged);
}

TEST(StreamDrift, FrozenZoneNeverReseeds) {
  EngineFixture fx;
  StreamConfig cfg;
  cfg.max_zones = 1;
  cfg.drift_z = 1.0;  // hair trigger
  cfg.drift_window = 8;
  ShardedPipeline pipe(fx.engine, one_shard(cfg));
  pipe.add_zone(identity_scaler());
  pipe.freeze_threshold(0, 0.5f);

  for (std::uint64_t t = 0; t < 200; ++t) {
    pipe.ingest(0, t, t < 100 ? 0.2f : 0.9f);  // blatant level shift
  }
  pipe.flush();
  EXPECT_EQ(pipe.stats().reseeds_total, 0u);
  EXPECT_EQ(pipe.threshold(0), 0.5f);  // frozen means frozen
}

}  // namespace
}  // namespace evfl::stream
