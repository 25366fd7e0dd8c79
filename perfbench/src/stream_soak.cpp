// stream_soak: streamed detection over many zones.  Set-up trains the
// forecaster briefly, freezes two weight sets into a forecast::Engine and
// seeds every zone's threshold from its clean calibration prefix.  The
// runtime is a one-shard stream::ShardedPipeline flushed serially; the two
// weight sets are republished alternately at fixed tick boundaries (after a
// flush, so results stay deterministic).  Two phases, each on a fresh
// pipeline over the same sample sequence:
//
//   replay (closed loop): ingest one tick for all zones, flush, drain;
//   rungs (open loop): sample k is due at k / rate; the loop ingests every
//     due sample and flushes what is pending, flushing early only when the
//     ring would otherwise overflow, so overload shows as lag, not drops.
//
// Latency runs from a sample's due time to the end of the flush that scored
// it.  Every rung must flag exactly the replay's events over its samples.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>
#include <vector>

#include "data/scaler.hpp"
#include "data/window.hpp"
#include "forecast/engine.hpp"
#include "forecast/model.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/telemetry.hpp"
#include "stream/pipeline.hpp"
#include "stream/sharded.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace evfl;

struct Sizes {
  std::size_t zones;
  std::size_t hours;
  std::size_t calib;          // clean, gap-free prefix per zone
  std::size_t publish_every;  // ticks between weight republishes
  std::size_t setups;
  std::size_t latency_reps;   // repetitions of the latency rung
  std::vector<double> rates;  // samples/s per rung
  std::size_t latency_rung;   // index into rates
};

Sizes sizes_for(const Options& o) {
  if (o.tiny) {
    return {16, 300, 100, 50, 1, 2, {1000, 2000, 4000, 8000, 16000}, 0};
  }
  return {256, 1000, 200, 250, 3, 5, {10000, 25000, 50000, 100000, 200000}, 0};
}

constexpr double kLatencyLimitS = 0.025;
/// Latency percentiles of the latency rung are taken per window of this
/// many samples: 0.1 s at 10k/s, 10 samples beyond the p99.  A host stall
/// of a few ms delays tens of samples and sets its window's p99; windows
/// this short mostly see none, and the fast-side quartile across them
/// keeps the stalls out.
constexpr std::size_t kRungLatencyWindow = 1000;
constexpr std::size_t kChunkTicks = 25;  // replay throughput piece
constexpr std::size_t kRingMax = 1 << 16;
constexpr std::size_t kBurstLen = 4;
constexpr std::size_t kOutageLen = 6;
constexpr double kBurstStartProb = 0.002;   // ~0.8% attacked samples
constexpr double kOutageStartProb = 0.002;

struct Sample {
  std::uint32_t zone;
  std::uint32_t t;
  float value;
};

/// Everything set-up produces: the sample sequence, its labels, and the
/// model state the phases start from.
struct Soak {
  std::size_t zones = 0;
  std::size_t hours = 0;
  std::vector<Sample> samples;               // tick-major, zones ascending
  std::vector<std::uint8_t> label;           // per sample: injected attack
  std::vector<std::uint32_t> index;          // [zone * hours + t] -> sample
  std::vector<data::MinMaxScaler> scalers;
  std::vector<std::vector<float>> calib_scores;
  std::vector<float> weights[2];
};

constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

/// The paper's forecaster (LSTM 50, Dense 10).
forecast::ForecasterConfig model_config() { return {}; }

Soak make_soak(const Options& o, const Sizes& sz, Tracer* tr) {
  Soak s;
  s.zones = sz.zones;
  s.hours = sz.hours;
  const forecast::ForecasterConfig mc = model_config();
  const std::size_t lookback = mc.sequence_length;

  // Diurnal load per zone with its own level, swing, phase and noise;
  // attack bursts and churn outages only after the calibration prefix.
  std::vector<std::vector<float>> series(sz.zones);
  std::vector<std::vector<std::uint8_t>> attacked(sz.zones), present(sz.zones);
  {
    Scope span(tr, "bench.generate");
    tensor::Rng root(o.seed);
    for (std::size_t z = 0; z < sz.zones; ++z) {
      tensor::Rng rng = root.split();
      const float base = rng.uniform(40.0f, 200.0f);
      const float swing = base * rng.uniform(0.2f, 0.45f);
      const float phase = rng.uniform(0.0f, 6.2831853f);
      const float noise = base * 0.02f;
      series[z].resize(sz.hours);
      attacked[z].assign(sz.hours, 0);
      present[z].assign(sz.hours, 1);
      for (std::size_t t = 0; t < sz.hours; ++t) {
        const float day = 6.2831853f * static_cast<float>(t % 24) / 24.0f;
        series[z][t] = base + swing * std::sin(day + phase) +
                       rng.normal(0.0f, noise);
      }
      for (std::size_t t = sz.calib; t < sz.hours; ++t) {
        if (rng.bernoulli(kOutageStartProb)) {
          for (std::size_t k = 0; k < kOutageLen && t + k < sz.hours; ++k) {
            present[z][t + k] = 0;
          }
          t += kOutageLen;
        }
      }
      for (std::size_t t = sz.calib + lookback; t < sz.hours; ++t) {
        if (rng.bernoulli(kBurstStartProb)) {
          for (std::size_t k = 0; k < kBurstLen && t + k < sz.hours; ++k) {
            series[z][t + k] = series[z][t + k] * 2.0f + 50.0f;
            attacked[z][t + k] = 1;
          }
          t += kBurstLen;
        }
      }
    }
    s.index.assign(sz.zones * sz.hours, kAbsent);
    for (std::size_t t = 0; t < sz.hours; ++t) {
      for (std::size_t z = 0; z < sz.zones; ++z) {
        if (!present[z][t]) continue;
        s.index[z * sz.hours + t] =
            static_cast<std::uint32_t>(s.samples.size());
        s.samples.push_back({static_cast<std::uint32_t>(z),
                             static_cast<std::uint32_t>(t), series[z][t]});
        s.label.push_back(attacked[z][t]);
      }
    }
  }

  // Scalers on each zone's clean prefix; the forecaster trains briefly on
  // a few zones' scaled prefixes.  Weight set B is A plus one more epoch.
  std::vector<std::vector<float>> scaled_calib(sz.zones);
  for (std::size_t z = 0; z < sz.zones; ++z) {
    const std::vector<float> prefix(series[z].begin(),
                                    series[z].begin() + sz.calib);
    s.scalers.emplace_back();
    s.scalers.back().fit(prefix);
    scaled_calib[z] = s.scalers.back().transform(prefix);
  }
  {
    Scope span(tr, "nn.fit");
    tensor::Rng rng(o.seed ^ 0x7EA1u);
    nn::Sequential model = forecast::make_forecaster(mc, rng);
    std::vector<float> train;
    for (std::size_t z = 0; z < std::min<std::size_t>(4, sz.zones); ++z) {
      train.insert(train.end(), scaled_calib[z].begin(), scaled_calib[z].end());
    }
    const data::SequenceDataset ds =
        data::make_forecast_sequences(train, lookback);
    nn::MseLoss loss;
    nn::Adam adam(1e-2f);
    nn::Trainer trainer(model, loss, adam, rng);
    nn::FitConfig fit;
    fit.epochs = o.tiny ? 1 : 3;
    fit.batch_size = mc.batch_size;
    trainer.fit(ds.x, ds.y, fit);
    s.weights[0] = model.get_weights();
    fit.epochs = 1;
    trainer.fit(ds.x, ds.y, fit);
    s.weights[1] = model.get_weights();
  }

  // Threshold seeds: each zone's calibration prefix scored the way the
  // stream scores (weight set A).
  forecast::EngineConfig ec;
  ec.max_batch = 256;
  forecast::Engine engine(mc, ec);
  {
    Scope span(tr, "forecast.publish");
    engine.publish(s.weights[0]);
  }
  Scope span(tr, "forecast.calibrate");
  for (std::size_t z = 0; z < sz.zones; ++z) {
    s.calib_scores.push_back(stream::batch_scores(engine, scaled_calib[z]));
  }
  return s;
}

/// Instruments of a traced pass.
struct Probe {
  Tracer* tr = nullptr;
  obs::Registry* registry = nullptr;
  obs::Histogram* engine_hist = nullptr;
  AllocCount steady_flush;      // flushes of the replay after warm-up
  std::size_t steady_flushes = 0;
};

struct Phase {
  std::vector<stream::AnomalyEvent> events;
  stream::StreamStats stats;
  std::size_t offered = 0;
  double seconds = 0.0;
  // Replay only: samples and paced seconds per chunk of kChunkTicks ticks.
  std::vector<double> chunk_samples;
  std::vector<double> chunk_s;
  // Rungs only; latency is paced by the pace around the whole rung.
  std::vector<double> latency_s;
  std::vector<double> gen_lag_s;
  std::size_t backlog_max = 0;
};

/// Shared by both phases: the pipeline, the publish schedule and the
/// instrumented flush.
class Runner {
 public:
  Runner(const Soak& s, const Sizes& sz, forecast::Engine& engine,
         Probe& probe, Phase& out)
      : s_(s), sz_(sz), engine_(engine), probe_(probe), out_(out),
        pipe_(engine, config(sz), probe.registry),
        next_publish_(sz.publish_every) {
    for (std::size_t z = 0; z < s.zones; ++z) {
      pipe_.add_zone(s.scalers[z]);
      pipe_.seed_threshold(static_cast<std::uint32_t>(z), s.calib_scores[z]);
    }
    publish(0);
  }

  /// A sample of tick `t` must wait for a republish (callers flush every
  /// earlier sample first, so it scores on the old weights).
  bool publish_due(std::uint32_t t) const { return t >= next_publish_; }

  void publish_next() {
    publish(++weight_set_ % 2);
    next_publish_ += sz_.publish_every;
  }

  void ingest(const Sample& smp) {
    pipe_.ingest(smp.zone, smp.t, smp.value);
    ++out_.offered;
  }

  void flush(bool steady) {
    const double e0 = probe_.engine_hist ? probe_.engine_hist->sum() : 0.0;
    Scope span(probe_.tr, "stream.flush");
    // The window holds the library call alone, no tracer bookkeeping.
    const AllocCount a0 = alloc_now();
    pipe_.flush();
    const AllocCount a1 = alloc_now();
    span.end();
    if (steady) {
      probe_.steady_flush.count += a1.count - a0.count;
      probe_.steady_flush.bytes += a1.bytes - a0.bytes;
      ++probe_.steady_flushes;
    }
    if (probe_.tr != nullptr) {
      // Engine scoring runs inside flush(); the engine's own latency
      // histogram says for how long.
      probe_.tr->attach(span.id(), "forecast.score",
                        probe_.engine_hist->sum() - e0);
    }
    pipe_.drain(out_.events);
  }

  void finish() { out_.stats = pipe_.stats(); }

 private:
  static stream::ShardedConfig config(const Sizes& sz) {
    stream::ShardedConfig c;
    c.shards = 1;
    c.stream.max_zones = sz.zones;
    c.stream.drift_z = 8.0;
    c.stream.queue_max = 1 << 16;
    c.stream.queue_shrink = 4096;
    c.ring_max = kRingMax;
    c.ring_shrink = 4096;
    return c;
  }

  void publish(std::size_t set) {
    Scope span(probe_.tr, "forecast.publish");
    engine_.publish(s_.weights[set]);
  }

  const Soak& s_;
  const Sizes& sz_;
  forecast::Engine& engine_;
  Probe& probe_;
  Phase& out_;
  stream::ShardedPipeline pipe_;
  std::size_t weight_set_ = 0;
  std::size_t next_publish_;
};

Phase run_replay(const Soak& s, const Sizes& sz, forecast::Engine& engine,
                 Probe& probe) {
  Phase out;
  Runner run(s, sz, engine, probe, out);
  const std::size_t warm = model_config().sequence_length + 8;
  const double t0 = now_s();
  PacedClock clock;
  std::size_t k = 0, chunk_k = 0;
  for (std::uint32_t t = 0; t < s.hours; ++t) {
    while (run.publish_due(t)) run.publish_next();
    {
      Scope span(probe.tr, "stream.ingest");
      for (; k < s.samples.size() && s.samples[k].t == t; ++k) {
        run.ingest(s.samples[k]);
      }
    }
    run.flush(t >= warm);
    if ((t + 1) % kChunkTicks == 0 || t + 1 == s.hours) {
      out.chunk_samples.push_back(static_cast<double>(k - chunk_k));
      out.chunk_s.push_back(clock.lap());
      chunk_k = k;
    }
  }
  out.seconds = now_s() - t0;
  run.finish();
  return out;
}

/// Open loop: the first `warm` samples (windows still filling, nothing to
/// score) are ingested and flushed at once, then sample warm + i is due at
/// `due[i]` seconds later.  Latency and lag cover the timed samples only.
/// Latencies are divided by the host pace around the whole rung, or, with
/// `window` > 0 (the latency rung), around each `window` timed samples: the
/// loop then stops at each window's end until all is flushed, samples the
/// pace, and shifts later due times by that pause.
Phase run_rung(const Soak& s, const Sizes& sz, forecast::Engine& engine,
               Probe& probe, std::size_t warm, const std::vector<double>& due,
               std::size_t window) {
  Phase out;
  Runner run(s, sz, engine, probe, out);
  for (std::size_t k = 0; k < warm; ++k) run.ingest(s.samples[k]);
  run.flush(false);
  const std::size_t n = warm + due.size();
  out.latency_s.resize(due.size());
  out.gen_lag_s.resize(due.size());
  std::size_t k = warm, flushed = warm, paced = warm;
  std::size_t window_end = window > 0 ? std::min(n, warm + window) : n;
  double shift = 0.0;  // pace pauses so far
  PacedClock clock;
  const double t0 = now_s();
  const auto flush = [&] {
    run.flush(false);
    const double end = now_s() - t0 - shift;
    out.backlog_max = std::max(out.backlog_max, k - flushed);
    for (; flushed < k; ++flushed) {
      out.latency_s[flushed - warm] = end - due[flushed - warm];
    }
  };
  const auto pace_window = [&] {
    const double p0 = now_s();
    clock.lap();
    for (; paced < flushed; ++paced) {
      out.latency_s[paced - warm] /= clock.pace();
    }
    shift += now_s() - p0;
  };
  while (flushed < n) {
    const double now = now_s() - t0 - shift;
    if (k < window_end && due[k - warm] <= now) {
      Scope span(probe.tr, "stream.ingest");
      for (; k < window_end && due[k - warm] <= now; ++k) {
        const Sample& smp = s.samples[k];
        while (run.publish_due(smp.t)) {
          if (k > flushed) flush();
          run.publish_next();
        }
        if (k - flushed >= kRingMax) flush();  // never drop: lag instead
        run.ingest(smp);
        out.gen_lag_s[k - warm] = now - due[k - warm];
      }
    }
    if (k > flushed) flush();
    if (flushed == window_end && window_end < n) {
      pace_window();
      window_end = std::min(n, window_end + window);
    }
  }
  out.seconds = now_s() - t0;
  pace_window();
  run.finish();
  return out;
}

using EventKey = std::tuple<std::uint32_t, std::uint64_t, float, float, float,
                            float>;

std::vector<EventKey> event_keys(const Soak& s,
                                 const std::vector<stream::AnomalyEvent>& ev,
                                 std::size_t n) {
  std::vector<EventKey> keys;
  for (const stream::AnomalyEvent& e : ev) {
    if (s.index[e.zone * s.hours + e.t] >= n) continue;
    keys.emplace_back(e.zone, e.t, e.value, e.score, e.threshold, e.repaired);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Recall on labelled attack samples the stream could score: a sample is
/// scored once its zone's window holds `lookback` samples since the last
/// gap.
double recall(const Soak& s, const std::vector<stream::AnomalyEvent>& ev,
              std::size_t lookback, std::size_t& labelled) {
  std::vector<std::uint8_t> flagged(s.samples.size(), 0);
  for (const stream::AnomalyEvent& e : ev) {
    flagged[s.index[e.zone * s.hours + e.t]] = 1;
  }
  std::vector<std::size_t> filled(s.zones, 0);
  std::vector<std::int64_t> last(s.zones, -2);
  std::size_t hits = 0;
  labelled = 0;
  for (std::size_t i = 0; i < s.samples.size(); ++i) {
    const Sample& smp = s.samples[i];
    if (static_cast<std::int64_t>(smp.t) != last[smp.zone] + 1) {
      filled[smp.zone] = 0;
    }
    last[smp.zone] = smp.t;
    if (filled[smp.zone] < lookback) {
      ++filled[smp.zone];
      continue;
    }
    if (s.label[i]) {
      ++labelled;
      hits += flagged[i];
    }
  }
  return labelled > 0 ? static_cast<double>(hits) / labelled : 0.0;
}

/// One measured pass: the replay at its start and end, every rung once in
/// between, and the latency rung's `latency_reps` runs spread among them so
/// its samples span the pass.
struct Pass {
  Phase replay;
  Phase replay_again;
  std::vector<std::vector<Phase>> rungs;  // [rate][rep]
  double seconds = 0.0;
};

Pass run_pass(const Soak& s, const Sizes& sz, forecast::Engine& engine,
              Probe& probe, std::size_t warm,
              const std::vector<std::vector<double>>& due,
              std::size_t latency_reps) {
  Pass p;
  p.rungs.resize(sz.rates.size());
  const auto rung = [&](std::size_t r) {
    p.rungs[r].push_back(run_rung(
        s, sz, engine, probe, warm, due[r],
        r == sz.latency_rung ? kRungLatencyWindow : 0));
  };
  const auto latency_rep = [&] {
    if (p.rungs[sz.latency_rung].size() < latency_reps) rung(sz.latency_rung);
  };
  const double t0 = now_s();
  latency_rep();
  p.replay = run_replay(s, sz, engine, probe);
  for (std::size_t r = 0; r < sz.rates.size(); ++r) {
    if (r == sz.latency_rung) continue;
    latency_rep();
    rung(r);
  }
  while (p.rungs[sz.latency_rung].size() < latency_reps) rung(sz.latency_rung);
  p.replay_again = run_replay(s, sz, engine, probe);
  p.seconds = now_s() - t0;
  return p;
}

bool rung_sustained(const Phase& ph) {
  std::vector<double> lat = ph.latency_s;
  const double last = lat.back();
  return quantile(lat, 0.99) <= kLatencyLimitS && last <= kLatencyLimitS &&
         ph.stats.ingest_dropped == 0 && ph.stats.events_dropped == 0;
}

}  // namespace

Result run_stream_soak(const Options& o) {
  const Sizes sz = sizes_for(o);
  Tracer* tr = o.tracer;
  Result res;

  std::vector<double> setup_s;
  Soak soak;
  PacedClock clock;
  for (std::size_t r = 0; r < sz.setups; ++r) {
    soak = make_soak(o, sz, r + 1 == sz.setups ? tr : nullptr);
    setup_s.push_back(clock.lap());
  }
  res.set("setup_s", fast_quartile(setup_s), "s");

  const forecast::ForecasterConfig mc = model_config();
  forecast::EngineConfig ec;
  ec.max_batch = 256;
  const double rung_s = o.tiny ? 0.2 : o.seconds / 10.0;
  // Rungs start once every zone's window is full.
  const std::size_t warm = soak.index[mc.sequence_length];
  std::vector<std::size_t> rung_n;
  std::vector<std::vector<double>> due;
  for (double rate : sz.rates) {
    const std::size_t timed = std::min(soak.samples.size() - warm,
                                       static_cast<std::size_t>(rate * rung_s));
    rung_n.push_back(warm + timed);
    due.emplace_back(timed);
    for (std::size_t i = 0; i < timed; ++i) {
      due.back()[i] = static_cast<double>(i) / rate;
    }
  }

  // The untraced pass measures; a traced run repeats it (latency rung
  // once) under tracing with the engine and pipeline registries attached.
  forecast::Engine engine(mc, ec);
  Probe plain;
  const Pass base = run_pass(soak, sz, engine, plain, warm, due,
                             tr == nullptr ? sz.latency_reps : 1);
  obs::Registry registry;
  forecast::Engine traced_engine(mc, ec, &registry);
  Probe probe;
  Pass traced;
  if (tr != nullptr) {
    probe.tr = tr;
    probe.registry = &registry;
    probe.engine_hist = &registry.histogram("engine.batch_seconds");
    traced = run_pass(soak, sz, traced_engine, probe, warm, due, 1);
  }
  const Pass& main = tr != nullptr ? traced : base;

  // ---- correctness ----
  const std::vector<EventKey> replay_all =
      event_keys(soak, main.replay.events, soak.samples.size());
  for (const Pass* p : {&base, &main}) {
    for (const Phase* ph : {&p->replay, &p->replay_again}) {
      res.check(event_keys(soak, ph->events, soak.samples.size()) ==
                    replay_all,
                "replays of the same samples flagged different events");
    }
  }
  std::size_t offered = 0, dropped = 0;
  const auto count = [&](const Phase& ph) {
    offered += ph.offered;
    dropped += ph.stats.ingest_dropped + ph.stats.events_dropped;
  };
  count(main.replay);
  count(main.replay_again);
  res.check(main.replay.stats.samples_total == soak.samples.size(),
            "the replay did not ingest every sample");
  for (std::size_t r = 0; r < main.rungs.size(); ++r) {
    const std::vector<EventKey> want =
        event_keys(soak, main.replay.events, rung_n[r]);
    for (const Phase& ph : main.rungs[r]) {
      count(ph);
      res.check(event_keys(soak, ph.events, rung_n[r]) == want,
                "rung " + std::to_string(static_cast<long>(sz.rates[r])) +
                    "/s flagged other events than the replay");
      res.check(ph.stats.scored_total + ph.stats.not_ready_total ==
                    rung_n[r],
                "a rung did not process every offered sample");
    }
  }
  res.attempted = offered;
  res.failed = dropped;
  std::size_t labelled = 0;
  const double stream_recall =
      recall(soak, main.replay.events, mc.sequence_length, labelled);
  res.check(labelled > 0, "no labelled attack sample was scored");

  double sustained = 0.0;
  for (std::size_t r = 0; r < sz.rates.size(); ++r) {
    if (rung_sustained(main.rungs[r].front())) sustained = sz.rates[r];
  }
  const std::vector<Phase>& lat_rung = main.rungs[sz.latency_rung];
  // Latency pools every repetition of the latency rung.
  std::vector<double> latency_s;
  for (const Phase& ph : lat_rung) {
    latency_s.insert(latency_s.end(), ph.latency_s.begin(), ph.latency_s.end());
  }
  // Replay throughput: the fast-side quartile of per-chunk times, scaled
  // to samples per second (chunks hold nearly equal sample counts).
  std::vector<double> per_sample_s;
  for (const Phase* ph : {&main.replay, &main.replay_again}) {
    for (std::size_t c = 0; c < ph->chunk_s.size(); ++c) {
      per_sample_s.push_back(ph->chunk_s[c] / ph->chunk_samples[c]);
    }
  }
  const double replay_rate = 1.0 / fast_quartile(per_sample_s);

  std::printf("stream_soak: %zu zones x %zu h, %zu samples, %zu labelled "
              "attack samples scored; replay %.0f samples/s; recall %.4f; "
              "sustained %.0f/s\n",
              sz.zones, sz.hours, soak.samples.size(), labelled, replay_rate,
              stream_recall, sustained);
  for (std::size_t r = 0; r < sz.rates.size(); ++r) {
    std::vector<double> lat = main.rungs[r].front().latency_s;
    std::printf("  rung %8.0f/s: %zu timed samples x %zu reps, p50 %.3f ms, "
                "p99 %.3f ms (per %zu-sample window: %.4f ms), "
                "backlog max %zu\n",
                sz.rates[r], rung_n[r] - warm, main.rungs[r].size(),
                quantile(lat, 0.50) * 1e3, quantile(lat, 0.99) * 1e3,
                kRungLatencyWindow,
                windowed_quantile(main.rungs[r].front().latency_s,
                                  kRungLatencyWindow, 0.99) * 1e3,
                main.rungs[r].front().backlog_max);
  }

  if (tr == nullptr) {
    res.set("throughput_per_s", replay_rate, "1/s");
    res.set("latency_p50_ms",
            windowed_quantile(latency_s, kRungLatencyWindow, 0.50) * 1e3, "ms");
    res.set("latency_p99_ms",
            windowed_quantile(latency_s, kRungLatencyWindow, 0.99) * 1e3, "ms");
    res.set("quality", stream_recall, "ratio");
    return res;
  }

  // ---- per-layer metrics from the traced pass ----
  // Zero-by-omission guard: every registry instrument read here must have
  // recorded something.
  obs::Histogram& batch_hist = registry.histogram("engine.batch_seconds");
  obs::Histogram& flush_hist = registry.histogram("stream.flush_seconds");
  const double batches = registry.counter("engine.batches_total").value();
  const double rows = registry.counter("engine.forecasts_total").value();
  res.check(batch_hist.count() > 0 && flush_hist.count() > 0 &&
                batches > 0.0 && rows > 0.0,
            "an engine or stream instrument recorded nothing");
  res.check(probe.steady_flushes > 0, "no steady-state flush was measured");

  stream::StreamStats st;
  std::size_t backlog_max = 0;
  const auto add = [&](const Phase& ph) {
    const stream::StreamStats& x = ph.stats;
    st.samples_total += x.samples_total;
    st.scored_total += x.scored_total;
    st.not_ready_total += x.not_ready_total;
    st.gaps_total += x.gaps_total;
    st.events_total += x.events_total;
    st.repaired_total += x.repaired_total;
    st.reseeds_total += x.reseeds_total;
    st.ingest_dropped += x.ingest_dropped;
    st.events_dropped += x.events_dropped;
    backlog_max = std::max(backlog_max, ph.backlog_max);
  };
  add(traced.replay);
  add(traced.replay_again);
  for (const std::vector<Phase>& rung : traced.rungs) add(rung.front());
  std::vector<double> lag = lat_rung.front().gen_lag_s;

  const double flush_s = tr->total_s("stream.flush");
  const AllocCount pub = tr->allocs("forecast.publish");
  res.set("forecast.publish_s", tr->total_s("forecast.publish"), "s");
  res.set("forecast.publishes",
          static_cast<double>(tr->count("forecast.publish")), "count");
  res.set("forecast.batches", batches, "count");
  res.set("forecast.rows_per_batch", rows / batches, "rows");
  res.set("forecast.batch_p50_ms", batch_hist.quantile(0.50) * 1e3, "ms");
  res.set("forecast.batch_p99_ms", batch_hist.quantile(0.99) * 1e3, "ms");
  res.set("stream.ingest_s", tr->total_s("stream.ingest"), "s");
  res.set("stream.flush_s", flush_s, "s");
  res.set("stream.flushes", static_cast<double>(tr->count("stream.flush")),
          "count");
  res.set("stream.flush_p50_ms", flush_hist.quantile(0.50) * 1e3, "ms");
  res.set("stream.flush_p99_ms", flush_hist.quantile(0.99) * 1e3, "ms");
  res.set("stream.engine_share", tr->total_s("forecast.score") / flush_s,
          "frac");
  res.set("stream.samples", static_cast<double>(st.samples_total), "count");
  res.set("stream.scored", static_cast<double>(st.scored_total), "count");
  res.set("stream.not_ready", static_cast<double>(st.not_ready_total),
          "count");
  res.set("stream.gaps", static_cast<double>(st.gaps_total), "count");
  res.set("stream.events", static_cast<double>(st.events_total), "count");
  res.set("stream.repaired", static_cast<double>(st.repaired_total), "count");
  res.set("stream.reseeds", static_cast<double>(st.reseeds_total), "count");
  res.set("stream.ingest_dropped", static_cast<double>(st.ingest_dropped),
          "count");
  res.set("stream.queue_dropped", static_cast<double>(st.events_dropped),
          "count");
  res.set("stream.backlog_max", static_cast<double>(backlog_max), "samples");
  res.set("stream.gen_lag_p99_ms", quantile(lag, 0.99) * 1e3, "ms");
  res.set("stream.sustained_rate", sustained, "1/s");
  res.set("alloc.forecast.publish.count", static_cast<double>(pub.count),
          "count");
  res.set("alloc.forecast.publish.bytes", static_cast<double>(pub.bytes),
          "bytes");
  res.set("alloc.stream.flush.count",
          static_cast<double>(probe.steady_flush.count), "count");
  res.set("alloc.stream.flush.bytes",
          static_cast<double>(probe.steady_flush.bytes), "bytes");
  res.set("trace.overhead_frac", (traced.seconds - base.seconds) / base.seconds,
          "frac");
  res.absent = {"datagen.",       "attack.",       "anomaly.",
                "data.",          "nn.predict_s",  "fl.",
                "alloc.anomaly.", "alloc.fl.",     "self.datagen_s",
                "self.attack_s",  "self.anomaly_s", "self.data_s",
                "self.fl_s"};
  return res;
}

}  // namespace perfbench
