// fleet_rounds: edge-aggregated federation over a generated fleet.  A
// fixed-size cohort of lazily materialized leaves trains a small forecaster
// for one epoch per round behind eight edge aggregators (exact kDense tree
// aggregation); after each round the global model answers one-window
// forecast requests from held-out clients.  This is the workload where
// orchestration (materialization, encode/decode, int128 folding, the
// in-memory wire) runs at scale, beside ~1024 tiny leaf trainings a round.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "data/scaler.hpp"
#include "data/window.hpp"
#include "datagen/fleet.hpp"
#include "fl/aggregator.hpp"
#include "fl/fleet.hpp"
#include "forecast/model.hpp"
#include "metrics/regression.hpp"
#include "nn/trainer.hpp"
#include "federation.hpp"
#include "obs/round_telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace evfl;

struct Sizes {
  std::size_t clients;
  std::size_t cohort;
  std::size_t edges;
  std::size_t rounds;
  std::size_t eval_clients;
  std::size_t setups_per_rep;
  std::size_t reps;
  std::size_t serve_blocks;  // blocks of closed-loop forecasts per round
  std::size_t serve_block;   // requests per block
};

Sizes sizes_for(const Options& o) {
  if (o.tiny) return {64, 16, 4, 2, 4, 2, 1, 2, 100};
  return {4096, 1024, 8, 10, 256, 11, 2, 15, kLatencyWindow};
}

constexpr std::size_t kHours = 96;
constexpr float kLearningRate = 3e-2f;
constexpr std::uint64_t kInitSeed = 1;

/// Set-ups per timed block.
constexpr std::size_t kSetupBlock = 5;

forecast::ForecasterConfig small_model() {
  forecast::ForecasterConfig mc;
  mc.sequence_length = 12;
  mc.lstm_units = 8;
  mc.dense_units = 4;
  mc.batch_size = 32;
  return mc;
}

struct Inputs {
  std::vector<datagen::ClientSpec> fleet;
  std::vector<datagen::ClientSpec> held_out;
  std::vector<float> init_weights;
};

Inputs make_inputs(const Options& o, const Sizes& sz, Tracer* tr) {
  Inputs in;
  Scope s(tr, "datagen.make_fleet");
  datagen::FleetConfig fc;
  fc.clients = sz.clients;
  fc.hours = kHours;
  fc.seed = o.seed;
  in.fleet = datagen::make_fleet(fc);
  fc.clients = sz.eval_clients;
  fc.seed = o.seed ^ 0x4E1D07u;
  in.held_out = datagen::make_fleet(fc);
  s.end();
  // A fixed initialization: with this small a model, some draws start
  // with dead units, and quality should vary with the data only.
  tensor::Rng rng(kInitSeed);
  in.init_weights = forecast::make_forecaster(small_model(), rng).get_weights();
  return in;
}

struct Rep {
  fl::FederatedRunResult run;
  std::vector<double> round_s;  // per round, paced
  double rounds_s = 0.0;
  std::size_t sampled = 0;
  std::size_t accepted = 0;
  std::size_t failed_updates = 0;
  bool every_leaf_accepted = true;
  std::vector<double> latency_s;  // per request, paced
  std::size_t requests = 0;
  std::size_t nonfinite = 0;
  double r2 = 0.0;
};

Rep run_rep(const Inputs& in, const Options& o, const Sizes& sz, Tracer* tr,
            obs::RoundTelemetrySink* telemetry) {
  Rep rep;
  const forecast::ForecasterConfig mc = small_model();
  fl::Aggregator root(in.init_weights);
  fl::FleetDriverConfig dc;
  dc.edges = sz.edges;
  dc.lookback = mc.sequence_length;
  dc.client.epochs_per_round = 1;
  dc.client.batch_size = mc.batch_size;
  dc.client.learning_rate = kLearningRate;
  dc.sampling.mode = fl::SamplingMode::kFixedSize;
  dc.sampling.count = sz.cohort;
  dc.sampling.seed = o.seed;
  const fl::ModelFactory factory = [mc](tensor::Rng& r) {
    return forecast::make_forecaster(mc, r);
  };
  const runtime::RunContext serial;
  fl::FleetDriver driver(root, in.fleet, factory, dc, &serial, nullptr,
                         telemetry);

  // Held-out windows, scaled per client: the serving requests, and the
  // targets the final model is scored against.
  std::vector<tensor::Tensor3> requests;
  std::vector<data::SequenceDataset> held_out;
  {
    Scope s(tr, "data.window");
    for (const datagen::ClientSpec& spec : in.held_out) {
      const data::TimeSeries series = datagen::materialize_series(spec);
      data::MinMaxScaler scaler;
      scaler.fit(series.values);
      held_out.push_back(data::make_forecast_sequences(
          scaler.transform(series.values), mc.sequence_length));
      for (std::size_t i = 0; i < held_out.back().x.batch(); ++i) {
        requests.push_back(held_out.back().x.batch_slice(i, i + 1));
      }
    }
  }

  // Rounds one at a time; after each, the new global model serves one
  // client's one-window forecast requests back to back (closed loop),
  // cycling over the held-out windows, in blocks that each take the pace
  // measured around them.
  tensor::Rng eval_rng(kInitSeed);
  nn::Sequential model = forecast::make_forecaster(mc, eval_rng);
  rep.latency_s.reserve(sz.rounds * sz.serve_blocks * sz.serve_block);
  std::size_t next_request = 0;
  PacedClock clock;
  for (std::size_t r = 0; r < sz.rounds; ++r) {
    {
      const std::size_t before = telemetry ? telemetry->size() : 0;
      clock.lap();
      Scope s(tr, "fl.run");
      fl::FederatedRunResult round = driver.run(1);
      s.end();
      rep.round_s.push_back(clock.lap());
      if (tr != nullptr) {
        attach_client_training(*tr, s.id(), *telemetry, before);
      }
      rep.run.rounds.push_back(round.rounds.front());
      rep.run.network.bytes_sent += round.network.bytes_sent;
      rep.run.network.messages_sent += round.network.messages_sent;
      rep.run.final_weights = std::move(round.final_weights);
    }
    model.set_weights(rep.run.final_weights);
    Scope serving(tr, "nn.predict");
    for (std::size_t b = 0; b < sz.serve_blocks; ++b) {
      const std::size_t first = rep.latency_s.size();
      for (std::size_t i = 0; i < sz.serve_block; ++i) {
        const double q0 = now_s();
        const tensor::Tensor3 y =
            model.predict(requests[next_request++ % requests.size()]);
        rep.latency_s.push_back(now_s() - q0);
        rep.nonfinite += !std::isfinite(y(0, 0, 0));
      }
      clock.lap();
      for (std::size_t i = first; i < rep.latency_s.size(); ++i) {
        rep.latency_s[i] /= clock.pace();
      }
    }
  }
  for (double s : rep.round_s) rep.rounds_s += s;
  for (const fl::RoundMetrics& rm : rep.run.rounds) {
    rep.sampled += rm.sampled_clients;
    rep.accepted += rm.updates_received;
    rep.failed_updates += rm.rejected_updates + rm.timed_out_clients +
                          rm.dropped_messages;
    rep.every_leaf_accepted = rep.every_leaf_accepted &&
                              rm.sampled_clients == sz.cohort &&
                              rm.updates_received == rm.sampled_clients;
  }

  // The final global model scores every held-out window once, batched; R²
  // is pooled in each client's scaled units so no single flat series
  // dominates.
  std::vector<float> actual, predicted;
  {
    Scope s(tr, "nn.predict");
    for (const data::SequenceDataset& ds : held_out) {
      const tensor::Tensor3 y = nn::predict_batched(model, ds.x);
      for (std::size_t i = 0; i < y.batch(); ++i) {
        actual.push_back(ds.y(i, 0, 0));
        predicted.push_back(y(i, 0, 0));
        rep.nonfinite += !std::isfinite(predicted.back());
      }
    }
  }
  rep.r2 = metrics::r2_score(actual, predicted);
  rep.requests = rep.latency_s.size() + actual.size();
  return rep;
}

}  // namespace

Result run_fleet_rounds(const Options& o) {
  const Sizes sz = sizes_for(o);
  Tracer* tr = o.tracer;
  Result res;

  // Set-up repeats before every repetition, so its figure spans the run.
  // One set-up takes a few ms, so each timing covers a block of them.
  Inputs in = make_inputs(o, sz, tr);
  std::vector<double> setup_s;
  const auto time_setups = [&] {
    PacedClock clock;
    for (std::size_t r = 0; r < sz.setups_per_rep; ++r) {
      Inputs again;
      for (std::size_t b = 0; b < kSetupBlock; ++b) {
        again = make_inputs(o, sz, nullptr);
      }
      setup_s.push_back(clock.lap() / kSetupBlock);
      res.check(again.init_weights == in.init_weights &&
                    again.fleet.size() == in.fleet.size(),
                "input generation is not deterministic for a fixed seed");
    }
  };

  std::vector<Rep> reps;
  obs::RoundTelemetrySink telemetry;
  double untraced_s = 0.0;
  if (tr == nullptr) {
    while (reps.size() < sz.reps) {
      time_setups();
      reps.push_back(run_rep(in, o, sz, nullptr, nullptr));
    }
  } else {
    time_setups();
    untraced_s = run_rep(in, o, sz, nullptr, nullptr).rounds_s;
    reps.push_back(run_rep(in, o, sz, tr, &telemetry));
  }
  res.set("setup_s", fast_quartile(setup_s), "s");

  const Rep& first = reps.front();
  // Every round accepts the whole cohort, so rounds are equal pieces of
  // work.
  std::vector<double> latency_s, round_s;
  for (const Rep& r : reps) {
    round_s.insert(round_s.end(), r.round_s.begin(), r.round_s.end());
    latency_s.insert(latency_s.end(), r.latency_s.begin(), r.latency_s.end());
    res.attempted += r.sampled + r.requests;
    res.failed += r.sampled - std::min(r.sampled, r.accepted) + r.nonfinite;
    res.check(r.every_leaf_accepted,
              "a round did not accept every sampled leaf");
    res.check(r.failed_updates == 0,
              "fault-free rounds rejected, dropped or timed out updates");
    res.check(r.run.final_weights == first.run.final_weights,
              "federations over the same fleet disagree");
  }
  for (float w : first.run.final_weights) {
    if (!std::isfinite(w)) {
      res.check(false, "global weights are not finite");
      break;
    }
  }
  res.check(std::isfinite(first.r2), "held-out R² is not finite");

  std::printf("fleet_rounds: %zu clients x %zu h, %zu edges, cohort %zu, "
              "%zu rounds; %zu reps, %.0f updates/s; %zu forecast requests; "
              "held-out R2 %.4f, final loss %.6f\n",
              sz.clients, kHours, sz.edges, sz.cohort, sz.rounds, reps.size(),
              static_cast<double>(sz.cohort) / fast_quartile(round_s),
              latency_s.size(), first.r2,
              first.run.rounds.back().mean_train_loss);

  if (tr == nullptr) {
    res.set("throughput_per_s",
            static_cast<double>(sz.cohort) / fast_quartile(round_s), "1/s");
    res.set("latency_p50_ms",
            windowed_quantile(latency_s, kLatencyWindow, 0.50) * 1e3, "ms");
    res.set("latency_p99_ms",
            windowed_quantile(latency_s, kLatencyWindow, 0.99) * 1e3, "ms");
    res.set("quality", first.r2, "ratio");
    return res;
  }

  res.set("datagen.make_fleet_s", tr->total_s("datagen.make_fleet"), "s");
  res.set("data.window_s", tr->total_s("data.window"), "s");
  res.set("nn.predict_s", tr->total_s("nn.predict"), "s");
  report_federation(res, *tr, first.run, telemetry);
  res.set("trace.overhead_frac", (first.rounds_s - untraced_s) / untraced_s,
          "frac");
  res.absent = {"datagen.generate_s", "attack.",          "anomaly.",
                "forecast.",          "stream.",          "alloc.anomaly.",
                "alloc.forecast.",    "alloc.stream.",    "self.attack_s",
                "self.anomaly_s",     "self.forecast_s",  "self.stream_s"};
  return res;
}

}  // namespace perfbench
