#include "stream/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <thread>
#include <tuple>
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

// ---- Shard ingest ring ------------------------------------------------------
// Each shard ingests through a BoundedQueue, whose serial contract
// test_stream.cpp pins.  The MpscRing test ids keep the name of the
// lock-free ring that queue replaced.

TEST(MpscRing, DrainInterleavedWithPushes) {
  BoundedQueue<int> r(16, 8);
  std::vector<int> out;
  int next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 5; ++i) r.push(next++);
    r.drain(out);
  }
  r.drain(out);
  ASSERT_EQ(out.size(), 250u);
  for (int i = 0; i < 250; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(r.dropped(), 0u);
}

// ---- Shard ingest ring: concurrent fuzz ------------------------------------

// Value encoding: producer id in the high bits, per-producer sequence in the
// low bits, so FIFO-per-producer and exact-accounting are both checkable.
constexpr std::uint64_t make_item(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 32) | seq;
}

TEST(MpscRing, ConcurrentProducersExactDropAccounting) {
  // Concurrent producers against a draining consumer, ring small enough to
  // force growth, shrink and drop-oldest.  Every pushed item must end up
  // either drained or counted dropped — exactly once.
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  BoundedQueue<std::uint64_t> ring(64, 8);

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> drained;
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      ring.drain(drained);
      std::this_thread::yield();
    }
    ring.drain(drained);
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ring.push(make_item(p, i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  // Exact accounting: drained + dropped == pushed.
  EXPECT_EQ(drained.size() + ring.dropped(), kProducers * kPerProducer);

  // Per-producer order: every producer's surviving items appear in strictly
  // increasing sequence order (drop-oldest removes items, never reorders).
  std::vector<std::int64_t> last(kProducers, -1);
  std::vector<std::uint64_t> seen(kProducers, 0);
  for (std::uint64_t item : drained) {
    const std::size_t p = static_cast<std::size_t>(item >> 32);
    const std::int64_t seq = static_cast<std::int64_t>(item & 0xFFFFFFFFu);
    ASSERT_LT(p, kProducers);
    EXPECT_GT(seq, last[p]);
    last[p] = seq;
    ++seen[p];
  }
  std::uint64_t total_seen = 0;
  for (std::uint64_t s : seen) total_seen += s;
  EXPECT_EQ(total_seen, drained.size());
}

TEST(MpscRing, ConcurrentProducersNoConsumerUntilEnd) {
  // No drain while producing: the ring must converge to exactly `max`
  // survivors (the freshest) with everything else counted dropped.
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  BoundedQueue<std::uint64_t> ring(32, 8);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ring.push(make_item(p, i));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  std::vector<std::uint64_t> out;
  ring.drain(out);
  EXPECT_EQ(out.size(), 32u);
  EXPECT_EQ(out.size() + ring.dropped(), kProducers * kPerProducer);
}

// ---- ShardedPipeline fixtures ----------------------------------------------

ForecasterConfig small_config() {
  ForecasterConfig cfg;
  cfg.lstm_units = 16;
  cfg.dense_units = 6;
  cfg.sequence_length = 12;
  return cfg;
}

data::MinMaxScaler identity_scaler() {
  data::MinMaxScaler s;
  s.fit({0.0f, 1.0f});
  return s;
}

std::vector<float> make_series(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull + seed;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    const float noise = static_cast<float>((x >> 40) & 0xFFFF) / 65535.0f;
    v[i] = 0.5f + 0.3f * std::sin(0.3f * static_cast<float>(i + seed)) +
           0.05f * (noise - 0.5f);
  }
  return v;
}

struct EngineFixture {
  ForecasterConfig model = small_config();
  Engine engine;

  explicit EngineFixture(std::uint64_t seed = 7) : engine(model) {
    tensor::Rng rng(seed);
    nn::Sequential net = forecast::make_forecaster(model, rng);
    engine.publish(net.get_weights());
  }
};

/// Per-zone event trace with exact score/threshold bits — the unit the
/// determinism contract is stated over (global interleaving across zones is
/// allowed to differ between shard counts; per-zone sequences are not).
using ZoneTrace =
    std::map<std::uint32_t, std::vector<std::tuple<std::uint64_t, float, float>>>;

ZoneTrace trace_of(std::vector<AnomalyEvent>& events) {
  ZoneTrace trace;
  for (const AnomalyEvent& ev : events) {
    trace[ev.zone].emplace_back(ev.t, ev.score, ev.threshold);
  }
  return trace;
}

/// Flush cadence for run_sharded(): one flush after the whole series.
constexpr std::size_t kFlushAtEnd = SIZE_MAX;

/// Replay `series` (one vector per zone, interleaved sample-major) through a
/// ShardedPipeline with `shards` shards and frozen thresholds, flushing
/// every `flush_every` ticks; returns the per-zone event trace.  Zone z
/// joins at tick `start[z]` (0 when `start` is empty): it skips the earlier
/// samples, so its first window fills `start[z]` ticks late.
ZoneTrace run_sharded(Engine& engine, std::size_t shards,
                      const std::vector<std::vector<float>>& series,
                      const std::vector<float>& thresholds,
                      std::size_t flush_every,
                      const std::vector<std::size_t>& start = {}) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.stream.max_zones = series.size();
  cfg.stream.repair_inputs = false;
  cfg.ring_max = 4096;
  cfg.ring_shrink = 256;
  ShardedPipeline pipe(engine, cfg);
  for (std::size_t z = 0; z < series.size(); ++z) {
    pipe.add_zone(identity_scaler());
    pipe.freeze_threshold(static_cast<std::uint32_t>(z), thresholds[z]);
  }
  const std::size_t n = series[0].size();
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t z = 0; z < series.size(); ++z) {
      if (!start.empty() && t < start[z]) continue;
      pipe.ingest(static_cast<std::uint32_t>(z), t, series[z][t]);
    }
    if ((t + 1) % flush_every == 0) pipe.flush();
  }
  pipe.flush();
  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  return trace_of(events);
}

// ---- Shard-count invariance -------------------------------------------------

TEST(ShardedPipeline, FrozenBitIdenticalAcrossShardCounts) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t zones = 6;
  const std::size_t n = 150;

  std::vector<std::vector<float>> series;
  std::vector<float> thresholds;
  std::vector<std::vector<float>> expected;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 300 + z));
    expected.push_back(batch_scores(fx.engine, series[z]));
    thresholds.push_back(anomaly::percentile(expected[z], 90.0));
  }

  const ZoneTrace base = run_sharded(fx.engine, 1, series, thresholds, 32);
  ASSERT_FALSE(base.empty()) << "degenerate fixture: nothing flagged";

  // Every surviving event carries the exact batch-score bits (merged
  // fan-in batch) ...
  for (const auto& [zone, evs] : base) {
    for (const auto& [t, score, thr] : evs) {
      ASSERT_GE(t, lookback);
      EXPECT_EQ(score, expected[zone][t - lookback]);
      EXPECT_EQ(thr, thresholds[zone]);
    }
  }

  // ... and the per-zone traces are bit-identical at every shard count and
  // flush cadence (round composition changes; per-zone results must not).
  for (std::size_t shards : {2u, 4u, 8u}) {
    const ZoneTrace t = run_sharded(fx.engine, shards, series, thresholds, 32);
    EXPECT_EQ(t, base) << "shards=" << shards;
  }
  const ZoneTrace odd = run_sharded(fx.engine, 4, series, thresholds, 7);
  EXPECT_EQ(odd, base) << "odd flush cadence";

  // Staggered starts (zone z joins at tick 5z): zones fill and run dry in
  // different rounds, so a shard stages fewer rows than it owns ahead of a
  // shard that stages some, and the fan-in has to move that block down.
  std::vector<std::size_t> start;
  for (std::size_t z = 0; z < zones; ++z) start.push_back(5 * z);
  const ZoneTrace staggered =
      run_sharded(fx.engine, 1, series, thresholds, kFlushAtEnd, start);
  ASSERT_FALSE(staggered.empty()) << "degenerate fixture: nothing flagged";
  for (const auto& [zone, evs] : staggered) {
    for (const auto& [t, score, thr] : evs) {
      ASSERT_GE(t, start[zone] + lookback);
      EXPECT_EQ(score, expected[zone][t - lookback]);
    }
  }
  for (std::size_t shards : {1u, 2u, 3u, 8u}) {
    for (std::size_t every : {std::size_t{3}, kFlushAtEnd}) {
      EXPECT_EQ(run_sharded(fx.engine, shards, series, thresholds, every,
                            start),
                staggered)
          << "staggered, shards=" << shards << " flush_every=" << every;
    }
  }
}

TEST(ShardedPipeline, MatchesStreamPipelinePerZone) {
  // A single-producer run (one shard, one flush at the end) and fan-in
  // runs flushed on a cadence must agree per zone, event for event, score
  // bit for score bit.
  EngineFixture fx;
  const std::size_t zones = 5;
  const std::size_t n = 120;

  std::vector<std::vector<float>> series;
  std::vector<float> thresholds;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 900 + z));
    const std::vector<float> exp = batch_scores(fx.engine, series[z]);
    thresholds.push_back(anomaly::percentile(exp, 88.0));
  }

  const ZoneTrace ref_trace =
      run_sharded(fx.engine, 1, series, thresholds, kFlushAtEnd);
  ASSERT_FALSE(ref_trace.empty()) << "degenerate fixture: nothing flagged";

  for (std::size_t shards : {1u, 3u, 8u}) {
    const ZoneTrace t = run_sharded(fx.engine, shards, series, thresholds, 40);
    EXPECT_EQ(t, ref_trace) << "shards=" << shards;
  }
}

TEST(ShardedPipeline, SingleZoneManyShards) {
  // 7 shards, 1 zone: every round stages exactly one row into a 1-row
  // engine batch — scores must still carry batch bits.
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t n = 70;
  const std::vector<float> series = make_series(n, 17);
  const std::vector<float> expected = batch_scores(fx.engine, series);
  const float thr = anomaly::percentile(expected, 85.0);

  const ZoneTrace trace = run_sharded(fx.engine, 7, {series}, {thr}, 9);
  std::size_t batch_flagged = 0;
  for (float s : expected) batch_flagged += (s > thr);
  ASSERT_TRUE(trace.count(0) == 1);
  ASSERT_EQ(trace.at(0).size(), batch_flagged);
  for (const auto& [t, score, threshold] : trace.at(0)) {
    EXPECT_EQ(score, expected[t - lookback]);
    EXPECT_EQ(threshold, thr);
  }
}

// ---- Multi-producer behavior ------------------------------------------------

TEST(ShardedPipeline, MultiProducerDeterministicPerZone) {
  // Producers own disjoint zone sets (the collector topology): per-zone
  // sample order is then fixed regardless of thread interleaving, so the
  // whole pipeline output must be deterministic — identical to the serial
  // single-thread feed.
  EngineFixture fx;
  const std::size_t zones = 6;
  const std::size_t n = 100;
  constexpr std::size_t kProducers = 3;

  std::vector<std::vector<float>> series;
  std::vector<float> thresholds;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 40 + z));
    const std::vector<float> exp = batch_scores(fx.engine, series[z]);
    thresholds.push_back(anomaly::percentile(exp, 88.0));
  }
  const ZoneTrace serial = run_sharded(fx.engine, 4, series, thresholds, 25);
  ASSERT_FALSE(serial.empty()) << "degenerate fixture: nothing flagged";

  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.stream.max_zones = zones;
  cfg.stream.repair_inputs = false;
  cfg.ring_max = 8192;  // ample: back-pressure drops would break equality
  cfg.ring_shrink = 256;
  ShardedPipeline pipe(fx.engine, cfg);
  for (std::size_t z = 0; z < zones; ++z) {
    pipe.add_zone(identity_scaler());
    pipe.freeze_threshold(static_cast<std::uint32_t>(z), thresholds[z]);
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t z = p; z < zones; z += kProducers) {
          pipe.ingest(static_cast<std::uint32_t>(z), t, series[z][t]);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pipe.flush();

  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  EXPECT_EQ(pipe.ingest_dropped(), 0u);
  EXPECT_EQ(trace_of(events), serial);
}

TEST(ShardedPipeline, ConcurrentIngestWithFlushesSoak) {
  // Churn soak: producers hammer all zones (with timestamp gaps) while the
  // control thread flushes concurrently.  Accounting must stay exact:
  // every sample is processed or counted dropped, and every zone's gap
  // count is consistent.  Primarily a TSan target.
  EngineFixture fx;
  const std::size_t zones = 8;
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 800;

  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.stream.max_zones = zones;
  cfg.ring_max = 1024;
  cfg.ring_shrink = 64;
  ShardedPipeline pipe(fx.engine, cfg);
  for (std::size_t z = 0; z < zones; ++z) pipe.add_zone(identity_scaler());

  std::atomic<bool> done{false};
  std::thread control([&] {
    while (!done.load(std::memory_order_acquire)) {
      pipe.flush();
      std::this_thread::yield();
    }
    pipe.flush();
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Each producer owns two zones; every 97th sample skips a timestamp
      // (churn) so gap handling runs under concurrency too.
      std::uint64_t t = 0;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        t += (i % 97 == 0) ? 2 : 1;
        const auto z0 = static_cast<std::uint32_t>(2 * p);
        const auto z1 = static_cast<std::uint32_t>(2 * p + 1);
        const float v = 0.4f + 0.2f * std::sin(0.1f * static_cast<float>(i));
        pipe.ingest(z0, t, v);
        pipe.ingest(z1, t, v + 0.1f);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  control.join();

  const StreamStats st = pipe.stats();
  const std::uint64_t pushed = kProducers * kPerProducer * 2;
  EXPECT_EQ(st.samples_total + st.ingest_dropped, pushed);
  EXPECT_EQ(st.scored_total + st.not_ready_total, st.samples_total);
  EXPECT_EQ(pipe.pending(), 0u);
}

// ---- Back-pressure & stats --------------------------------------------------

TEST(ShardedPipeline, IngestBackPressureDropsOldestWithExactCount) {
  EngineFixture fx;
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.stream.max_zones = 2;
  cfg.ring_max = 16;  // tiny: overfill before any flush
  cfg.ring_shrink = 8;
  ShardedPipeline pipe(fx.engine, cfg);
  pipe.add_zone(identity_scaler());
  pipe.add_zone(identity_scaler());

  // 100 samples into each zone's shard ring, no flush: 16 survive per ring.
  for (std::uint64_t t = 0; t < 100; ++t) {
    pipe.ingest(0, t, 0.5f);
    pipe.ingest(1, t, 0.5f);
  }
  EXPECT_EQ(pipe.ingest_dropped(), 2u * (100 - 16));
  const std::size_t processed = pipe.flush();
  EXPECT_EQ(processed, 2u * 16);
  const StreamStats st = pipe.stats();
  EXPECT_EQ(st.samples_total, 2u * 16);
  EXPECT_EQ(st.ingest_dropped, 2u * (100 - 16));
  // The survivors are the freshest and contiguous: one gap reset each at
  // most (from the jump over the dropped prefix), no phantom samples.
  EXPECT_EQ(st.scored_total + st.not_ready_total, st.samples_total);
}

TEST(ShardedPipeline, StatsAggregateAcrossShards) {
  EngineFixture fx;
  const std::size_t lookback = fx.model.sequence_length;
  const std::size_t zones = 4;
  const std::size_t n = 40;

  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.stream.max_zones = zones;
  ShardedPipeline pipe(fx.engine, cfg);
  std::vector<std::vector<float>> series;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 70 + z));
    pipe.add_zone(identity_scaler());
  }
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t z = 0; z < zones; ++z) {
      pipe.ingest(static_cast<std::uint32_t>(z), t, series[z][t]);
    }
  }
  pipe.flush();

  const StreamStats st = pipe.stats();
  EXPECT_EQ(st.samples_total, zones * n);
  EXPECT_EQ(st.not_ready_total, zones * lookback);
  EXPECT_EQ(st.scored_total, zones * (n - lookback));
  EXPECT_EQ(st.flushes_total, 1u);
  EXPECT_EQ(st.ingest_dropped, 0u);
  EXPECT_EQ(pipe.pending(), 0u);
  EXPECT_EQ(pipe.shards(), 4u);
  EXPECT_EQ(pipe.zones(), zones);
}

TEST(ShardedPipeline, ParallelContextMatchesSerial) {
  // Shard stage/scatter on a thread pool must be bit-identical to the
  // serial dispatch (the repo-wide parallel determinism contract).
  EngineFixture fx;
  const std::size_t zones = 6;
  const std::size_t n = 90;

  std::vector<std::vector<float>> series;
  std::vector<float> thresholds;
  for (std::size_t z = 0; z < zones; ++z) {
    series.push_back(make_series(n, 510 + z));
    const std::vector<float> exp = batch_scores(fx.engine, series[z]);
    thresholds.push_back(anomaly::percentile(exp, 88.0));
  }
  const ZoneTrace serial = run_sharded(fx.engine, 4, series, thresholds, 30);

  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.stream.max_zones = zones;
  cfg.stream.repair_inputs = false;
  cfg.ring_max = 4096;
  cfg.ring_shrink = 256;
  ShardedPipeline pipe(fx.engine, cfg);
  for (std::size_t z = 0; z < zones; ++z) {
    pipe.add_zone(identity_scaler());
    pipe.freeze_threshold(static_cast<std::uint32_t>(z), thresholds[z]);
  }
  runtime::ThreadPool pool(4);
  runtime::RunContext ctx;
  ctx.pool = &pool;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t z = 0; z < zones; ++z) {
      pipe.ingest(static_cast<std::uint32_t>(z), t, series[z][t]);
    }
    if ((t + 1) % 30 == 0) pipe.flush(&ctx);
  }
  pipe.flush(&ctx);
  std::vector<AnomalyEvent> events;
  pipe.drain(events);
  EXPECT_EQ(trace_of(events), serial);
}

// ---- Validation -------------------------------------------------------------

TEST(ShardedPipeline, Validation) {
  EngineFixture fx;
  ShardedConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(ShardedPipeline(fx.engine, cfg), Error);
  cfg.shards = 257;
  EXPECT_THROW(ShardedPipeline(fx.engine, cfg), Error);
  cfg.shards = 2;
  cfg.ring_shrink = cfg.ring_max + 1;
  EXPECT_THROW(ShardedPipeline(fx.engine, cfg), Error);

  ShardedConfig ok;
  ok.shards = 2;
  ok.stream.max_zones = 2;
  ShardedPipeline pipe(fx.engine, ok);
  pipe.add_zone(identity_scaler());
  EXPECT_THROW(pipe.ingest(5, 0, 0.5f), Error);
  EXPECT_THROW(pipe.freeze_threshold(0, NAN), Error);
}

}  // namespace
}  // namespace evfl::stream
