// Streaming-detection soak bench (DESIGN.md §14–15): drives the streaming
// runtimes over 8 zones and >=10k samples of diurnal traffic with injected
// attack bursts and churn gaps, and measures the properties the streaming
// layer promises:
//
//   1. frozen-threshold equivalence — a stream replay with frozen
//      thresholds and repair off flags the bit-identical anomaly set the
//      batch detector (stream::batch_scores + compute_threshold) flags,
//      at one shard and at fan-in;
//   2. detection parity — the adaptive one-shard soak (seeded thresholds,
//      online repair, churn, back-pressure) keeps recall on the labelled
//      attack samples within 0.02 of the batch detector, and every point
//      of the shard sweep (drift probe armed) holds the same bound;
//   3. zero steady-state allocations — after warmup, an ingest batch
//      (ingest + flush + drain) never touches the heap, at one shard and
//      at fan-in (rings, staging and the merged score call), whether it
//      is clean or attacked (every sample flagged, repaired at the window
//      edge and exported as an event);
//   4. shard scaling — a 1/2/4/8-shard sweep under multi-producer load
//      records samples/s into BENCH_stream.json; the >=3x-at-8-shards
//      gate is enforced only on hosts with >= 8 hardware threads
//      (elsewhere the sweep is trend data: a 1-core runner cannot
//      materialize parallel speedup, deterministic gates still apply).
//
// The alloc counts, the equivalence bits and the recall-parity bounds are
// the deterministic gates the perf-smoke CI job pins; throughput and flush
// latency are trend-watched via BENCH_stream.json (shared runners make
// timings noisy).
//
//   bench_stream                 # full soak: trains briefly, prints
//                                # throughput/recall + shard sweep, writes
//                                # JSON, exit 1 on any gate failure
//   bench_stream --check-allocs  # short run; exit 1 if a steady-state
//                                # clean or attacked ingest batch
//                                # allocates or a frozen replay diverges
//                                # from batch (either shard count)
//
// Honors --stream-queue-max / --stream-flush / --stream-shards /
// --stream-drift-z / --seed / --threads (the alloc gates always measure
// the serial path; --stream-shards sets the fan-in shard count of gates 1
// and 3, 4 when it is 1; the sweep always covers 1/2/4/8).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "anomaly/threshold.hpp"
#include "common/hash.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "data/csv.hpp"
#include "data/scaler.hpp"
#include "data/window.hpp"
#include "forecast/engine.hpp"
#include "metrics/timer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/telemetry.hpp"
#include "runtime/run_context.hpp"
#include "runtime/thread_pool.hpp"
#include "stream/pipeline.hpp"
#include "stream/sharded.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;
using tensor::Rng;

constexpr std::size_t kZones = 8;
constexpr float kPi = 3.14159265f;

/// Deterministic per-(zone, t) ripple in [-1, 1] (splitmix64 hash), so
/// zone series are reproducible without a shared stateful RNG.
float ripple(std::size_t zone, std::size_t t) {
  const std::uint64_t x =
      splitmix64(static_cast<std::uint64_t>(zone) << 32 | t);
  return static_cast<float>(x >> 11) * 0x1.0p-52f - 1.0f;
}

/// Clean charging volume for `zone` at hour `t`: zone-offset diurnal wave
/// plus small noise, in physical units.
float clean_value(std::size_t zone, std::size_t t, std::size_t period) {
  const float phase = 0.7f * static_cast<float>(zone);
  const float base = 60.0f + 8.0f * static_cast<float>(zone);
  const float diurnal =
      25.0f * std::sin(static_cast<float>(t) * 2.0f * kPi /
                           static_cast<float>(period) +
                       phase);
  return base + diurnal + 2.0f * ripple(zone, t);
}

struct ZoneData {
  std::vector<float> series;       // physical units, attacks injected
  std::vector<std::uint8_t> label; // 1 = injected attack sample
  data::MinMaxScaler scaler;       // fitted on the clean calibration prefix
  std::vector<float> scaled;       // scaler.transform(series)
  std::vector<float> scores;       // stream::batch_scores over `scaled`
  std::vector<float> calib_scores; // scores whose target sample is < calib
  float threshold = 0.0f;          // batch threshold from calib_scores
};

void print_u64(const char* name, std::uint64_t v) {
  std::printf("  %-22s %llu\n", name, static_cast<unsigned long long>(v));
}

/// Count divergences between a streamed event list and the batch
/// detector's anomaly set: every event's score must be bit-identical to
/// the batch score at the same (zone, t), and set membership must match
/// in both directions.  `batch_flagged` receives the batch anomaly count.
std::size_t equivalence_mismatches(
    const std::vector<ZoneData>& zones, std::size_t lookback,
    const std::vector<stream::AnomalyEvent>& events,
    std::size_t& batch_flagged) {
  std::size_t mismatches = 0;
  batch_flagged = 0;
  std::set<std::pair<std::uint32_t, std::uint64_t>> streamed;
  for (const stream::AnomalyEvent& ev : events) {
    const ZoneData& zd = zones[ev.zone];
    const std::size_t idx = static_cast<std::size_t>(ev.t) - lookback;
    if (idx >= zd.scores.size() || ev.score != zd.scores[idx]) {
      ++mismatches;  // score not bit-identical to the batch score
    }
    streamed.emplace(ev.zone, ev.t);
  }
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const ZoneData& zd = zones[z];
    for (std::size_t i = 0; i < zd.scores.size(); ++i) {
      const bool flagged = zd.scores[i] > zd.threshold;
      batch_flagged += flagged;
      const bool in_stream = streamed.count(
          {static_cast<std::uint32_t>(z), i + lookback}) != 0;
      if (flagged != in_stream) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_allocs = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-allocs") == 0) {
      check_allocs = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  core::ExperimentConfig cfg;
  core::apply_cli_overrides(cfg, static_cast<int>(passthrough.size()),
                            passthrough.data());

  const forecast::ForecasterConfig& model_cfg = cfg.forecaster;
  const std::size_t lookback = model_cfg.sequence_length;
  const std::size_t hours = check_allocs ? 600 : 2000;  // per zone
  const std::size_t calib = check_allocs ? 300 : 500;   // clean prefix

  // --- model ---------------------------------------------------------------
  // Brief training on one zone's scaled calibration prefix makes the score
  // distribution realistic for the recall comparison; the alloc/equivalence
  // gates do not depend on weight values, so --check-allocs skips it.
  Rng rng(cfg.seed);
  nn::Sequential model = forecast::make_forecaster(model_cfg, rng);

  // --- per-zone data: diurnal series, attack bursts, batch reference -------
  // Attacks are volumetric bursts (value pinned far above the calibration
  // range) injected only after the calibration prefix, ~0.8% of samples per
  // zone — well inside the 98th-percentile rule's contamination budget, so
  // the adaptive threshold stays in the clean tail.
  std::vector<ZoneData> zones(kZones);
  for (std::size_t z = 0; z < kZones; ++z) {
    ZoneData& zd = zones[z];
    zd.series.resize(hours);
    zd.label.assign(hours, 0);
    for (std::size_t t = 0; t < hours; ++t) {
      zd.series[t] = clean_value(z, t, lookback);
    }
    if (!check_allocs) {
      for (std::size_t b = 0; b < 4; ++b) {
        const std::size_t start = calib + 120 + 330 * b + 29 * z;
        for (std::size_t k = 0; k < 4 && start + k < hours; ++k) {
          zd.series[start + k] = zd.series[start + k] * 2.0f + 50.0f;
          zd.label[start + k] = 1;
        }
      }
    }
    zd.scaler.fit(
        std::vector<float>(zd.series.begin(), zd.series.begin() + calib));
    zd.scaled = zd.scaler.transform(zd.series);
  }

  if (!check_allocs) {
    const std::vector<float> train(zones[0].scaled.begin(),
                                   zones[0].scaled.begin() + calib);
    data::SequenceDataset ds = data::make_forecast_sequences(train, lookback);
    nn::MseLoss loss;
    nn::Adam adam(1e-2f);
    nn::Trainer trainer(model, loss, adam, rng);
    nn::FitConfig fit;
    fit.epochs = 6;
    fit.batch_size = model_cfg.batch_size;
    trainer.fit(ds.x, ds.y, fit);
  }
  const std::vector<float> weights = model.get_weights();

  forecast::EngineConfig engine_cfg;
  engine_cfg.max_batch = 2 * kZones;
  obs::Registry registry;
  forecast::Engine engine(model_cfg, engine_cfg,
                          check_allocs ? nullptr : &registry);
  engine.publish(weights);

  // Batch reference: score every window, threshold on the calibration
  // scores under the experiment's rule (98th percentile by default).
  for (std::size_t z = 0; z < kZones; ++z) {
    ZoneData& zd = zones[z];
    zd.scores = stream::batch_scores(engine, zd.scaled);
    zd.calib_scores.assign(zd.scores.begin(),
                           zd.scores.begin() + (calib - lookback));
    zd.threshold = anomaly::compute_threshold(zd.calib_scores,
                                              cfg.filter.threshold);
  }

  // Gates 1 and 3 run at one shard, the single-producer shape, and at
  // fan-in: --stream-shards, or 4 when that is 1.
  const std::size_t gate_shards[2] = {
      1, cfg.stream_shards > 1 ? cfg.stream_shards : std::size_t{4}};

  // --- 1. frozen-threshold equivalence -------------------------------------
  // Repair off, thresholds frozen at the batch values, queue and rings
  // sized to hold everything, and an off-cadence flush so rounds vary in
  // width (fan-in merges them into one engine call, down to single rows):
  // the determinism contract (DESIGN.md §15) says the replay must flag
  // exactly the batch anomaly set with bit-identical scores.
  std::size_t equiv_events[2] = {};
  std::size_t equiv_mismatches[2] = {};
  bool equivalent[2] = {};
  for (std::size_t g = 0; g < 2; ++g) {
    stream::ShardedConfig scfg = core::make_sharded_config(cfg, kZones);
    scfg.shards = gate_shards[g];
    scfg.stream.repair_inputs = false;
    scfg.stream.adapt_thresholds = false;
    scfg.stream.queue_max = hours * kZones;
    scfg.stream.queue_shrink = 1024;
    scfg.ring_max = hours * kZones;
    scfg.ring_shrink = 1024;
    stream::ShardedPipeline pipe(engine, scfg);
    for (std::size_t z = 0; z < kZones; ++z) {
      pipe.add_zone(zones[z].scaler);
      pipe.freeze_threshold(static_cast<std::uint32_t>(z),
                            zones[z].threshold);
    }
    for (std::size_t t = 0; t < hours; ++t) {
      for (std::size_t z = 0; z < kZones; ++z) {
        pipe.ingest(static_cast<std::uint32_t>(z), t, zones[z].series[t]);
      }
      if (t % 97 == 96) pipe.flush();
    }
    pipe.flush();
    std::vector<stream::AnomalyEvent> events;
    pipe.drain(events);
    std::size_t batch_flagged = 0;
    equiv_events[g] = events.size();
    equiv_mismatches[g] =
        equivalence_mismatches(zones, lookback, events, batch_flagged);
    equivalent[g] =
        equiv_mismatches[g] == 0 && equiv_events[g] == batch_flagged;
    std::printf("frozen equivalence (%zu shards): %s (%zu events, %zu "
                "batch-flagged, %zu mismatches)\n",
                gate_shards[g], equivalent[g] ? "bit-identical" : "DIVERGED",
                equiv_events[g], batch_flagged, equiv_mismatches[g]);
  }

  // --- 3. steady-state allocations -----------------------------------------
  // Two kinds of continuation traffic, each measured after its own warmup
  // (windows full, rings, queues and the event sink at their steady
  // footprint).  Clean: thresholds pinned far above any clean score, so
  // nothing flags.  Attacked: every sample a volumetric burst (the soak's
  // 2x + 50 shape) against the batch thresholds, so every sample flags, is
  // repaired at the window edge and exports an event.  One ingest batch —
  // ring pushes, drain, staging, fan-in, one merged score call per round,
  // scatter, repair — followed by a serial flush and an event drain must
  // not touch the heap.
  const char* const kTraffic[2] = {"clean", "attacked"};
  double allocs_per_batch[2][2] = {};
  double bytes_per_batch[2][2] = {};
  std::uint64_t attacked_repaired[2] = {};
  std::size_t attacked_samples = 0;
  for (std::size_t g = 0; g < 2; ++g) {
    stream::ShardedConfig scfg = core::make_sharded_config(cfg, kZones);
    scfg.shards = gate_shards[g];
    stream::ShardedPipeline pipe(engine, scfg);
    for (std::size_t z = 0; z < kZones; ++z) {
      pipe.add_zone(zones[z].scaler);
      pipe.freeze_threshold(static_cast<std::uint32_t>(z), 1e30f);
    }
    const std::size_t batch_ticks =
        (scfg.stream.flush_batch + kZones - 1) / kZones;
    std::size_t tick = 0;
    bool attacked = false;
    std::vector<stream::AnomalyEvent> sink;
    const auto run_batches = [&](std::size_t n) {
      for (std::size_t b = 0; b < n; ++b) {
        for (std::size_t k = 0; k < batch_ticks; ++k, ++tick) {
          for (std::size_t z = 0; z < kZones; ++z) {
            const float v = clean_value(z, tick, lookback);
            pipe.ingest(static_cast<std::uint32_t>(z), tick,
                        attacked ? v * 2.0f + 50.0f : v);
          }
        }
        pipe.flush();  // serial path — the gate's subject
        pipe.drain(sink);
        sink.clear();
      }
    };
    const std::size_t meas_batches = 12;
    attacked_samples = meas_batches * batch_ticks * kZones;
    for (std::size_t a = 0; a < 2; ++a) {
      attacked = a == 1;
      if (attacked) {
        for (std::size_t z = 0; z < kZones; ++z) {
          pipe.freeze_threshold(static_cast<std::uint32_t>(z),
                                zones[z].threshold);
        }
      }
      run_batches((lookback + 8 + batch_ticks - 1) / batch_ticks + 4);

      const std::uint64_t repaired0 = pipe.stats().repaired_total;
      const bench::AllocCount a0 = bench::alloc_now();
      run_batches(meas_batches);
      const bench::AllocCount a1 = bench::alloc_now();
      allocs_per_batch[g][a] =
          static_cast<double>(a1.count - a0.count) / meas_batches;
      bytes_per_batch[g][a] =
          static_cast<double>(a1.bytes - a0.bytes) / meas_batches;
      std::printf("steady state (%zu shards, %s): %.1f allocs / %.0f bytes "
                  "per ingest batch (%zu batches measured)\n",
                  gate_shards[g], kTraffic[a], allocs_per_batch[g][a],
                  bytes_per_batch[g][a], meas_batches);
      if (attacked) {
        attacked_repaired[g] = pipe.stats().repaired_total - repaired0;
      }
    }
  }

  // The deterministic gates, at both shard counts.
  bool gates_fail = false;
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t a = 0; a < 2; ++a) {
      if (allocs_per_batch[g][a] > 0.0) {
        std::printf("FAIL: %zu-shard steady-state %s ingest allocates "
                    "(%.1f/batch)\n",
                    gate_shards[g], kTraffic[a], allocs_per_batch[g][a]);
        gates_fail = true;
      }
    }
    // Without this the attacked measurement could pass by flagging
    // nothing, and so repairing nothing.
    if (attacked_repaired[g] != attacked_samples) {
      std::printf("FAIL: %zu-shard attacked batches repaired %llu of %zu "
                  "samples\n",
                  gate_shards[g],
                  static_cast<unsigned long long>(attacked_repaired[g]),
                  attacked_samples);
      gates_fail = true;
    }
    if (!equivalent[g]) {
      std::printf("FAIL: %zu-shard frozen-threshold replay diverged from "
                  "the batch detector (%zu mismatches)\n",
                  gate_shards[g], equiv_mismatches[g]);
      gates_fail = true;
    }
  }
  if (check_allocs) {
    if (!gates_fail) {
      std::printf("OK: allocation-free at steady state (clean and "
                  "attacked) and frozen replays match batch at 1 and %zu "
                  "shards\n",
                  gate_shards[1]);
    }
    return gates_fail ? 1 : 0;
  }

  // --- 2. adaptive soak: throughput, churn, back-pressure, recall ----------
  // One shard, one producer that flushes every --stream-flush samples:
  // seeded (adapting) thresholds, online repair, three churn outages per
  // zone, a concurrent-shaped drain cadence.  Recall is compared on the
  // labelled samples both detectors could score (churn refills excluded).
  stream::ShardedConfig soak_cfg = core::make_sharded_config(cfg, kZones);
  soak_cfg.shards = 1;
  soak_cfg.ring_max = hours * kZones;  // lossless: parity needs every sample
  soak_cfg.ring_shrink = 1024;
  const std::size_t flush_batch = soak_cfg.stream.flush_batch;
  stream::ShardedPipeline pipe(engine, soak_cfg, &registry);
  for (std::size_t z = 0; z < kZones; ++z) {
    pipe.add_zone(zones[z].scaler);
    pipe.seed_threshold(static_cast<std::uint32_t>(z),
                        zones[z].calib_scores);
  }

  const auto in_outage = [&](std::size_t z, std::size_t t) {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t start = calib + 200 + 400 * k + 53 * z;
      if (t >= start && t < start + 6) return true;
    }
    return false;
  };

  std::vector<stream::AnomalyEvent> events;
  events.reserve(hours);
  std::uint64_t ingested = 0;
  const metrics::WallTimer soak_timer;
  for (std::size_t t = 0; t < hours; ++t) {
    for (std::size_t z = 0; z < kZones; ++z) {
      if (in_outage(z, t)) continue;  // churn: the zone misses these hours
      pipe.ingest(static_cast<std::uint32_t>(z), t, zones[z].series[t]);
      if (++ingested % flush_batch == 0) pipe.flush();
    }
    if (t % 400 == 399) pipe.drain(events);
  }
  pipe.flush();
  const double soak_secs = soak_timer.seconds();
  pipe.drain(events);
  const stream::StreamStats st = pipe.stats();
  const double samples_per_sec =
      soak_secs > 0.0 ? static_cast<double>(ingested) / soak_secs : 0.0;

  // Which samples the stream could score: replay the window/gap state
  // machine over the ingested sequence (all inputs here are finite, and
  // repair keeps windows full, so readiness depends only on fill + gaps).
  std::vector<std::vector<std::uint8_t>> scored(
      kZones, std::vector<std::uint8_t>(hours, 0));
  for (std::size_t z = 0; z < kZones; ++z) {
    std::size_t filled = 0;
    std::uint64_t last_t = 0;
    bool has_last = false;
    for (std::size_t t = 0; t < hours; ++t) {
      if (in_outage(z, t)) continue;
      if (has_last && t != last_t + 1) filled = 0;
      if (filled >= lookback) {
        scored[z][t] = 1;
      } else {
        ++filled;
      }
      last_t = t;
      has_last = true;
    }
  }
  std::set<std::pair<std::uint32_t, std::uint64_t>> stream_flagged;
  for (const stream::AnomalyEvent& ev : events) {
    stream_flagged.emplace(ev.zone, ev.t);
  }
  std::uint64_t labelled = 0, hit_stream = 0, hit_batch = 0;
  for (std::size_t z = 0; z < kZones; ++z) {
    const ZoneData& zd = zones[z];
    for (std::size_t t = lookback; t < hours; ++t) {
      if (zd.label[t] == 0 || scored[z][t] == 0) continue;
      ++labelled;
      hit_stream += stream_flagged.count(
                        {static_cast<std::uint32_t>(z), t}) != 0;
      hit_batch += zd.scores[t - lookback] > zd.threshold;
    }
  }
  const double recall_stream =
      labelled > 0 ? static_cast<double>(hit_stream) / labelled : 0.0;
  const double recall_batch =
      labelled > 0 ? static_cast<double>(hit_batch) / labelled : 0.0;
  const double recall_delta = std::abs(recall_stream - recall_batch);

  obs::Histogram& flush_hist = registry.histogram("stream.flush_seconds");
  const double flush_p50_ms = flush_hist.quantile(0.50) * 1e3;
  const double flush_p99_ms = flush_hist.quantile(0.99) * 1e3;

  std::printf("=== stream soak (%zu zones x %zu hours, seq %zu, hidden %zu, "
              "flush %zu, queue %zu) ===\n",
              kZones, hours, lookback, model_cfg.lstm_units, flush_batch,
              soak_cfg.stream.queue_max);
  std::printf("throughput: %.0f samples/s sustained (%.3f s soak), flush "
              "p50 %.3f ms p99 %.3f ms\n",
              samples_per_sec, soak_secs, flush_p50_ms, flush_p99_ms);
  print_u64("samples_total", st.samples_total);
  print_u64("scored_total", st.scored_total);
  print_u64("not_ready_total", st.not_ready_total);
  print_u64("gaps_total", st.gaps_total);
  print_u64("events_total", st.events_total);
  print_u64("events_dropped", st.events_dropped);
  print_u64("repaired_total", st.repaired_total);
  std::printf("recall on %llu scored attack samples: stream %.4f, batch "
              "%.4f (delta %.4f)\n",
              static_cast<unsigned long long>(labelled), recall_stream,
              recall_batch, recall_delta);

  // --- 4. shard sweep: multi-producer throughput + recall parity -----------
  // Each shard count replays the same adaptive soak through a
  // ShardedPipeline: two producer threads (each owning a disjoint half of
  // the zones, so per-zone sample order stays deterministic) ingest
  // concurrently while a control thread drives flushes against a pool
  // sized to min(shards, hardware).  Rings are sized lossless so recall is
  // comparable, and the drift probe is armed so the parity gate also
  // covers the re-seed path.  The >=3x-at-8-shards gate only binds on
  // hosts with >= 8 hardware threads; elsewhere samples/s is trend data.
  struct SweepPoint {
    std::size_t shards = 0;
    double samples_per_sec = 0.0;
    double secs = 0.0;
    double recall = 0.0;
    double recall_delta = 0.0;
    std::uint64_t ingest_dropped = 0;
    std::uint64_t reseeds = 0;
    std::uint64_t events = 0;
  };
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::vector<SweepPoint> sweep;
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
    stream::ShardedConfig scfg = core::make_sharded_config(cfg, kZones);
    scfg.shards = shard_count;
    scfg.ring_max = hours * kZones;  // lossless: parity needs every sample
    scfg.ring_shrink = 1024;
    if (scfg.stream.drift_z <= 0.0) scfg.stream.drift_z = 8.0;
    stream::ShardedPipeline spipe(engine, scfg);
    for (std::size_t z = 0; z < kZones; ++z) {
      spipe.add_zone(zones[z].scaler);
      spipe.seed_threshold(static_cast<std::uint32_t>(z),
                           zones[z].calib_scores);
    }
    runtime::ThreadPool pool(std::max<std::size_t>(
        1, std::min<std::size_t>(shard_count,
                                 hw_threads == 0 ? 1 : hw_threads)));
    runtime::RunContext ctx;
    ctx.pool = &pool;

    std::vector<stream::AnomalyEvent> sevents;
    sevents.reserve(hours);
    std::atomic<bool> producers_done{false};
    const metrics::WallTimer sweep_timer;
    std::thread control([&] {
      while (!producers_done.load(std::memory_order_acquire)) {
        spipe.flush(&ctx);
        spipe.drain(sevents);
        std::this_thread::yield();
      }
      spipe.flush(&ctx);  // final flush: rings are quiescent now
    });
    constexpr std::size_t kProducers = 2;
    std::atomic<std::uint64_t> pushed{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::uint64_t mine = 0;
        for (std::size_t t = 0; t < hours; ++t) {
          for (std::size_t z = p; z < kZones; z += kProducers) {
            if (in_outage(z, t)) continue;
            spipe.ingest(static_cast<std::uint32_t>(z), t,
                         zones[z].series[t]);
            ++mine;
          }
        }
        pushed.fetch_add(mine, std::memory_order_relaxed);
      });
    }
    for (std::thread& th : producers) th.join();
    producers_done.store(true, std::memory_order_release);
    control.join();
    const double sweep_secs = sweep_timer.seconds();
    spipe.drain(sevents);
    const stream::StreamStats sst = spipe.stats();

    std::set<std::pair<std::uint32_t, std::uint64_t>> sflag;
    for (const stream::AnomalyEvent& ev : sevents) {
      sflag.emplace(ev.zone, ev.t);
    }
    std::uint64_t hit = 0;
    for (std::size_t z = 0; z < kZones; ++z) {
      for (std::size_t t = lookback; t < hours; ++t) {
        if (zones[z].label[t] == 0 || scored[z][t] == 0) continue;
        hit += sflag.count({static_cast<std::uint32_t>(z), t}) != 0;
      }
    }
    SweepPoint pt;
    pt.shards = shard_count;
    pt.secs = sweep_secs;
    pt.samples_per_sec =
        sweep_secs > 0.0
            ? static_cast<double>(pushed.load()) / sweep_secs
            : 0.0;
    pt.recall = labelled > 0 ? static_cast<double>(hit) / labelled : 0.0;
    pt.recall_delta = std::abs(pt.recall - recall_batch);
    pt.ingest_dropped = sst.ingest_dropped;
    pt.reseeds = sst.reseeds_total;
    pt.events = sst.events_total;
    sweep.push_back(pt);
  }
  const double speedup_8v1 =
      (!sweep.empty() && sweep.front().samples_per_sec > 0.0)
          ? sweep.back().samples_per_sec / sweep.front().samples_per_sec
          : 0.0;
  const bool shard_gate_enforced = hw_threads >= 8;
  std::printf("=== shard sweep (2 producers, drift armed, hw threads %u) "
              "===\n",
              hw_threads);
  for (const SweepPoint& pt : sweep) {
    std::printf("  shards %zu: %9.0f samples/s (%.3f s), recall %.4f "
                "(delta %.4f), reseeds %llu, dropped %llu, events %llu\n",
                pt.shards, pt.samples_per_sec, pt.secs, pt.recall,
                pt.recall_delta,
                static_cast<unsigned long long>(pt.reseeds),
                static_cast<unsigned long long>(pt.ingest_dropped),
                static_cast<unsigned long long>(pt.events));
  }
  std::printf("  speedup 8 vs 1 shard: %.2fx (%s)\n", speedup_8v1,
              shard_gate_enforced
                  ? "gated >= 3x"
                  : "trend only: host has < 8 hardware threads");

  {
    std::ofstream json("BENCH_stream.json");
    json << "{\n  \"config\": {\"zones\": " << kZones
         << ", \"hours_per_zone\": " << hours << ", \"seq\": " << lookback
         << ", \"hidden\": " << model_cfg.lstm_units
         << ", \"flush_batch\": " << flush_batch
         << ", \"queue_max\": " << soak_cfg.stream.queue_max
         << ", \"fanin_shards\": " << gate_shards[1]
         << ", \"seed\": " << cfg.seed << "},\n"
         << "  \"samples_per_sec\": " << samples_per_sec << ",\n"
         << "  \"soak_seconds\": " << soak_secs << ",\n"
         << "  \"flush_p50_ms\": " << flush_p50_ms << ",\n"
         << "  \"flush_p99_ms\": " << flush_p99_ms << ",\n"
         << "  \"allocs_per_ingest_batch\": " << allocs_per_batch[0][0]
         << ",\n"
         << "  \"bytes_per_ingest_batch\": " << bytes_per_batch[0][0] << ",\n"
         << "  \"sharded_allocs_per_ingest_batch\": "
         << allocs_per_batch[1][0] << ",\n"
         << "  \"sharded_bytes_per_ingest_batch\": " << bytes_per_batch[1][0]
         << ",\n"
         << "  \"frozen_equivalent\": "
         << (equivalent[0] ? "true" : "false") << ",\n"
         << "  \"equivalence_mismatches\": " << equiv_mismatches[0] << ",\n"
         << "  \"sharded_frozen_equivalent\": "
         << (equivalent[1] ? "true" : "false") << ",\n"
         << "  \"sharded_equivalence_mismatches\": " << equiv_mismatches[1]
         << ",\n"
         << "  \"stats\": {\"samples_total\": " << st.samples_total
         << ", \"scored_total\": " << st.scored_total
         << ", \"not_ready_total\": " << st.not_ready_total
         << ", \"gaps_total\": " << st.gaps_total
         << ", \"events_total\": " << st.events_total
         << ", \"events_dropped\": " << st.events_dropped
         << ", \"repaired_total\": " << st.repaired_total
         << ", \"flushes_total\": " << st.flushes_total << "},\n"
         << "  \"labelled_scored_attacks\": " << labelled << ",\n"
         << "  \"recall_stream\": " << recall_stream << ",\n"
         << "  \"recall_batch\": " << recall_batch << ",\n"
         << "  \"recall_delta\": " << recall_delta << ",\n"
         << "  \"hardware_concurrency\": " << hw_threads << ",\n"
         << "  \"shard_speedup_8v1\": " << speedup_8v1 << ",\n"
         << "  \"shard_gate_enforced\": "
         << (shard_gate_enforced ? "true" : "false") << ",\n"
         << "  \"shard_sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& pt = sweep[i];
      json << (i == 0 ? "" : ",") << "\n    {\"shards\": " << pt.shards
           << ", \"samples_per_sec\": " << pt.samples_per_sec
           << ", \"seconds\": " << pt.secs
           << ", \"recall\": " << pt.recall
           << ", \"recall_delta\": " << pt.recall_delta
           << ", \"ingest_dropped\": " << pt.ingest_dropped
           << ", \"reseeds\": " << pt.reseeds
           << ", \"events\": " << pt.events << "}";
    }
    json << "\n  ]\n}\n";
  }
  std::printf("wrote BENCH_stream.json\n");

  const std::string metrics_path = data::artifact_path("stream_metrics.json");
  registry.write_json_file(metrics_path);
  std::printf("metrics: %s\n", metrics_path.c_str());

  bool fail = gates_fail;
  if (recall_delta > 0.02) {
    std::printf("FAIL: streaming recall %.4f strays more than 0.02 from "
                "batch recall %.4f\n",
                recall_stream, recall_batch);
    fail = true;
  }
  for (const SweepPoint& pt : sweep) {
    if (pt.recall_delta > 0.02) {
      std::printf("FAIL: %zu-shard recall %.4f strays more than 0.02 from "
                  "batch recall %.4f\n",
                  pt.shards, pt.recall, recall_batch);
      fail = true;
    }
    if (pt.ingest_dropped != 0) {
      std::printf("FAIL: %zu-shard sweep dropped %llu samples from "
                  "lossless-sized rings\n",
                  pt.shards,
                  static_cast<unsigned long long>(pt.ingest_dropped));
      fail = true;
    }
  }
  if (shard_gate_enforced && speedup_8v1 < 3.0) {
    std::printf("FAIL: 8-shard speedup %.2fx below the 3x gate on a "
                "%u-thread host\n",
                speedup_8v1, hw_threads);
    fail = true;
  }
  return fail ? 1 : 0;
}
