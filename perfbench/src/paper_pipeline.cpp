// paper_pipeline: the paper's path on its three zones.  Generated charging
// series get DDoS bursts; per zone an LSTM-autoencoder filter is fitted on
// the clean train split and run over the attacked series; the filtered
// series are windowed and federated (SyncDriver, three clients); after each
// round the global model answers one-window forecast requests over the test
// windows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/ddos_injector.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "datagen/shenzhen.hpp"
#include "fl/driver.hpp"
#include "forecast/model.hpp"
#include "metrics/classification.hpp"
#include "metrics/regression.hpp"
#include "nn/trainer.hpp"
#include "federation.hpp"
#include "obs/round_telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace evfl;

struct Sizes {
  std::size_t hours;
  std::size_t ae_epochs;
  std::size_t rounds;
  std::size_t epochs;
  std::size_t setups_per_pass;
  std::size_t passes;
  std::size_t serve_blocks;  // blocks of closed-loop forecasts per round
  std::size_t serve_block;   // requests per block
};

Sizes sizes_for(const Options& o) {
  if (o.tiny) return {200, 1, 1, 1, 2, 1, 2, 100};
  return {600, 3, 4, 2, 9, 3, 2, kLatencyWindow};
}

/// Model initialization and shuffling are fixed, so passes over different
/// seeds differ in their data only.
constexpr std::uint64_t kInitSeed = 1;

/// Set-ups per timed block.
constexpr std::size_t kSetupBlock = 50;

/// The learning rate of both the autoencoder and the federated clients:
/// the paper's 1e-3 needs far more epochs than a benchmark pass affords to
/// produce a forecaster worth scoring.
constexpr float kLearningRate = 5e-3f;

struct Inputs {
  std::vector<data::TimeSeries> clean;
  std::vector<data::TimeSeries> attacked;
  std::size_t attack_points = 0;
};

Inputs make_inputs(const Options& o, const Sizes& sz, Tracer* tr) {
  Inputs in;
  datagen::GeneratorConfig gen;
  gen.hours = sz.hours;
  gen.seed = o.seed;
  {
    Scope s(tr, "datagen.generate");
    in.clean = datagen::generate_clients(gen);
  }
  // The paper's 36 bursts span 4344 h; keep that density at this length.
  attack::DdosConfig ddos;
  ddos.bursts = std::max<std::size_t>(3, 36 * sz.hours / 4344);
  const attack::DdosInjector injector(ddos);
  tensor::Rng root(o.seed ^ 0xA77AC4ull);
  Scope s(tr, "attack.inject");
  in.attacked.resize(in.clean.size());
  for (std::size_t c = 0; c < in.clean.size(); ++c) {
    tensor::Rng rng = root.split();
    in.attack_points +=
        injector.inject(in.clean[c], in.attacked[c], rng).points_attacked;
  }
  return in;
}

struct Pass {
  double seconds = 0.0;           // the pipeline, without serving, paced
  std::vector<double> latency_s;  // one per forecast request, paced
  std::size_t requests = 0;
  std::size_t nonfinite = 0;
  double mean_r2 = 0.0;
  bool r2_finite = true;
  metrics::ConfusionMatrix cm;  // recounted from flags and labels
  double lib_recall = 0.0;      // metrics::evaluate_detection, pooled
  double lib_precision = 0.0;
  std::size_t flagged = 0;
  std::size_t segments = 0;
  std::size_t fit_epochs = 0;
  std::vector<std::vector<std::uint8_t>> flags;
  fl::FederatedRunResult run;
};

Pass run_pass(const Inputs& in, const Sizes& sz, Tracer* tr,
              obs::RoundTelemetrySink* telemetry) {
  Pass p;
  // Pieces of the pass are timed at nominal pace; serving blocks and the
  // traced pass's extra score() calls are pieces that p.seconds leaves out.
  PacedClock clock;
  core::ExperimentConfig cfg;
  cfg.filter.autoencoder.max_epochs = sz.ae_epochs;
  cfg.filter.autoencoder.learning_rate = kLearningRate;
  const forecast::ForecasterConfig mc = cfg.forecaster;
  const std::size_t zones = in.clean.size();

  // Detection and mitigation, per zone.
  tensor::Rng filter_root(kInitSeed ^ 0xF117E5ull);
  std::vector<core::ClientData> clients(zones);
  for (std::size_t c = 0; c < zones; ++c) {
    core::ClientData& cd = clients[c];
    cd.zone = std::to_string(c);
    cd.clean = in.clean[c];
    cd.attacked = in.attacked[c];
    tensor::Rng rng = filter_root.split();
    const data::TrainTestSplit split =
        data::temporal_split(cd.clean, cfg.train_fraction);
    anomaly::EvChargingAnomalyFilter filter(cfg.filter, rng);
    {
      Scope s(tr, "anomaly.fit");
      p.fit_epochs += filter.fit(split.train, rng).epochs_run;
    }
    p.seconds += clock.lap();
    // The traced pass times score() on its own before and after filter(),
    // so filter() splits into scoring and mitigation; scoring is inference
    // only, so results do not change.
    const auto score_alone = [&] {
      if (tr == nullptr) return;
      Scope s(tr, "anomaly.score");
      filter.score(cd.attacked);
      s.end();
      clock.lap();
    };
    score_alone();
    {
      Scope s(tr, "anomaly.filter");
      cd.filter_result = filter.filter(cd.attacked);
    }
    p.seconds += clock.lap();
    score_alone();
    cd.filtered = cd.filter_result.filtered;
    p.segments += cd.filter_result.segments.size();
    p.flags.push_back(cd.filter_result.flags);
  }

  // Detection quality: the library's figure, and a recount from the raw
  // flags and labels that must agree with it.
  metrics::ConfusionMatrix lib_cm;
  for (const core::ClientData& cd : clients) {
    lib_cm += core::detection_metrics(cd).cm;
    const std::vector<std::uint8_t>& f = cd.filter_result.flags;
    const std::vector<std::uint8_t>& l = cd.attacked.labels;
    for (std::size_t i = 0; i < f.size() && i < l.size(); ++i) {
      p.flagged += f[i] != 0;
      if (f[i] && l[i]) ++p.cm.tp;
      if (f[i] && !l[i]) ++p.cm.fp;
      if (!f[i] && l[i]) ++p.cm.fn;
      if (!f[i] && !l[i]) ++p.cm.tn;
    }
  }
  const metrics::DetectionMetrics lib = metrics::from_confusion(lib_cm);
  p.lib_recall = lib.recall;
  p.lib_precision = lib.precision;

  std::vector<core::PreparedClient> prepared(zones);
  {
    Scope s(tr, "data.window");
    for (std::size_t c = 0; c < zones; ++c) {
      prepared[c] = core::window_scenario(
          clients[c], core::DataScenario::kFiltered, cfg);
    }
  }

  // Federated training on the filtered data.
  tensor::Rng fl_root(kInitSeed ^ 0xFEDAull);
  const fl::ModelFactory factory = [mc](tensor::Rng& r) {
    return forecast::make_forecaster(mc, r);
  };
  fl::ClientConfig cc;
  cc.epochs_per_round = sz.epochs;
  cc.batch_size = mc.batch_size;
  cc.learning_rate = kLearningRate;
  std::vector<std::unique_ptr<fl::Client>> fl_clients;
  for (std::size_t c = 0; c < zones; ++c) {
    fl_clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(c), prepared[c].train.x, prepared[c].train.y,
        factory, cc, fl_root.split()));
  }
  tensor::Rng server_rng = fl_root.split();
  fl::Server server(forecast::make_forecaster(mc, server_rng).get_weights());
  fl::InMemoryNetwork net;
  const runtime::RunContext serial;
  fl::SyncDriver driver(server, fl_clients, net, &serial, nullptr,
                        fl::RoundPolicy{}, telemetry);

  // Rounds one at a time; after each, the new global model serves one
  // client's one-window forecast requests back to back (closed loop),
  // cycling over the test windows, in blocks that each take the pace
  // measured around them.  Serving is not part of the pass time.
  std::vector<tensor::Tensor3> requests;
  for (const core::PreparedClient& pc : prepared) {
    for (std::size_t i = 0; i < pc.test.x.batch(); ++i) {
      requests.push_back(pc.test.x.batch_slice(i, i + 1));
    }
  }
  tensor::Rng eval_rng(kInitSeed);
  nn::Sequential model = forecast::make_forecaster(mc, eval_rng);
  p.latency_s.reserve(sz.rounds * sz.serve_blocks * sz.serve_block);
  std::size_t next_request = 0;
  for (std::size_t r = 0; r < sz.rounds; ++r) {
    {
      const std::size_t before = telemetry ? telemetry->size() : 0;
      Scope s(tr, "fl.run");
      fl::FederatedRunResult round = driver.run(1);
      s.end();
      if (tr != nullptr) {
        attach_client_training(*tr, s.id(), *telemetry, before);
      }
      p.run.rounds.push_back(round.rounds.front());
      p.run.network = round.network;  // the network's running totals
      p.run.final_weights = std::move(round.final_weights);
    }
    p.seconds += clock.lap();
    model.set_weights(p.run.final_weights);
    Scope serving(tr, "nn.predict");
    for (std::size_t b = 0; b < sz.serve_blocks; ++b) {
      const std::size_t first = p.latency_s.size();
      for (std::size_t i = 0; i < sz.serve_block; ++i) {
        const double q0 = now_s();
        const tensor::Tensor3 y =
            model.predict(requests[next_request++ % requests.size()]);
        p.latency_s.push_back(now_s() - q0);
        p.nonfinite += !std::isfinite(y(0, 0, 0));
      }
      clock.lap();
      for (std::size_t i = first; i < p.latency_s.size(); ++i) {
        p.latency_s[i] /= clock.pace();
      }
    }
  }

  // The final model scores every test window once, batched.
  double r2_sum = 0.0;
  {
    Scope s(tr, "nn.predict");
    for (const core::PreparedClient& pc : prepared) {
      const tensor::Tensor3 y = nn::predict_batched(model, pc.test.x);
      std::vector<float> predicted;
      for (std::size_t i = 0; i < y.batch(); ++i) {
        predicted.push_back(pc.scaler.inverse_one(y(i, 0, 0)));
        p.nonfinite += !std::isfinite(predicted.back());
      }
      const double r2 = metrics::r2_score(pc.test_actual, predicted);
      p.r2_finite = p.r2_finite && std::isfinite(r2);
      r2_sum += r2;
    }
  }
  p.mean_r2 = r2_sum / static_cast<double>(zones);
  p.requests = p.latency_s.size() + requests.size();
  p.seconds += clock.lap();
  return p;
}

bool same_series(const std::vector<data::TimeSeries>& a,
                 const std::vector<data::TimeSeries>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].values != b[i].values || a[i].labels != b[i].labels) return false;
  }
  return true;
}

double safe_ratio(std::size_t num, std::size_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

Result run_paper_pipeline(const Options& o) {
  const Sizes sz = sizes_for(o);
  Tracer* tr = o.tracer;
  Result res;

  // Set-up repeats before every pass, so its figure spans the run.  One
  // set-up takes ~0.1 ms, so each timing covers a block of them.
  Inputs in = make_inputs(o, sz, tr);
  std::vector<double> setup_s;
  const auto time_setups = [&] {
    PacedClock clock;
    for (std::size_t r = 0; r < sz.setups_per_pass; ++r) {
      Inputs again;
      for (std::size_t b = 0; b < kSetupBlock; ++b) {
        again = make_inputs(o, sz, nullptr);
      }
      setup_s.push_back(clock.lap() / kSetupBlock);
      res.check(same_series(again.attacked, in.attacked),
                "input generation is not deterministic for a fixed seed");
    }
  };

  // Measured passes.  A traced run makes one untraced pass for the
  // overhead baseline, then one traced pass.
  std::vector<Pass> passes;
  obs::RoundTelemetrySink telemetry;
  double untraced_s = 0.0;
  if (tr == nullptr) {
    while (passes.size() < sz.passes) {
      time_setups();
      passes.push_back(run_pass(in, sz, nullptr, nullptr));
    }
  } else {
    time_setups();
    untraced_s = run_pass(in, sz, nullptr, nullptr).seconds;
    passes.push_back(run_pass(in, sz, tr, &telemetry));
  }
  res.set("setup_s", fast_quartile(setup_s), "s");

  const Pass& first = passes.front();
  std::vector<double> pass_s, latency_s;
  for (const Pass& p : passes) {
    pass_s.push_back(p.seconds);
    latency_s.insert(latency_s.end(), p.latency_s.begin(), p.latency_s.end());
    std::size_t updates = 0, accepted = 0;
    for (const fl::RoundMetrics& rm : p.run.rounds) {
      updates += rm.sampled_clients;
      accepted += rm.updates_received;
    }
    res.attempted += updates + p.requests;
    res.failed += updates - std::min(updates, accepted) + p.nonfinite;
    res.check(p.run.final_weights == first.run.final_weights &&
                  p.flags == first.flags,
              "pipeline passes over the same inputs disagree");
  }

  // Correctness: finite R², detection figures recomputed from flags.
  const double recall = safe_ratio(first.cm.tp, first.cm.tp + first.cm.fn);
  const double precision = safe_ratio(first.cm.tp, first.cm.tp + first.cm.fp);
  res.check(first.r2_finite, "federated R² is not finite");
  res.check(std::abs(recall - first.lib_recall) < 1e-12 &&
                std::abs(precision - first.lib_precision) < 1e-12,
            "detection recall/precision disagree with a recount from flags");
  res.check(first.cm.tp > 0, "the filter flagged no attacked point");
  for (float w : first.run.final_weights) {
    if (!std::isfinite(w)) {
      res.check(false, "federated weights are not finite");
      break;
    }
  }

  std::printf("paper_pipeline: 3 zones x %zu h, AE %zu epochs, %zu rounds x "
              "%zu epochs; %zu passes, median %.3f s; %zu forecast requests; "
              "R2 %.4f; detection recall %.4f precision %.4f\n",
              sz.hours, sz.ae_epochs, sz.rounds, sz.epochs, passes.size(),
              median(pass_s), latency_s.size(), first.mean_r2, recall,
              precision);

  if (tr == nullptr) {
    res.set("throughput_per_s",
            3.0 * static_cast<double>(sz.hours) / fast_quartile(pass_s),
            "1/s");
    res.set("latency_p50_ms",
            windowed_quantile(latency_s, kLatencyWindow, 0.50) * 1e3, "ms");
    res.set("latency_p99_ms",
            windowed_quantile(latency_s, kLatencyWindow, 0.99) * 1e3, "ms");
    res.set("quality", first.mean_r2, "ratio");
    return res;
  }

  // ---- per-layer metrics from the traced pass ----
  const Pass& p = first;
  res.set("datagen.generate_s", tr->total_s("datagen.generate"), "s");
  res.set("attack.inject_s", tr->total_s("attack.inject"), "s");
  res.set("attack.points", static_cast<double>(in.attack_points), "count");
  // Two score() calls per zone bracket each filter() call.
  const double score_s = tr->total_s("anomaly.score") / 2.0;
  res.set("anomaly.fit_s", tr->total_s("anomaly.fit"), "s");
  res.set("anomaly.fit_epochs", static_cast<double>(p.fit_epochs), "count");
  res.set("anomaly.score_s", score_s, "s");
  res.set("anomaly.mitigate_s", tr->total_s("anomaly.filter") - score_s, "s");
  res.set("anomaly.flagged", static_cast<double>(p.flagged), "count");
  res.set("anomaly.segments", static_cast<double>(p.segments), "count");
  res.set("anomaly.recall", recall, "ratio");
  res.set("anomaly.precision", precision, "ratio");
  res.set("data.window_s", tr->total_s("data.window"), "s");
  res.set("nn.predict_s", tr->total_s("nn.predict"), "s");

  report_federation(res, *tr, p.run, telemetry);
  const AllocCount fit_alloc = tr->allocs("anomaly.fit");
  res.set("alloc.anomaly.fit.count", static_cast<double>(fit_alloc.count),
          "count");
  res.set("alloc.anomaly.fit.bytes", static_cast<double>(fit_alloc.bytes),
          "bytes");
  // p.seconds leaves out the extra score() calls, which the untraced pass
  // does not make.
  res.set("trace.overhead_frac", (p.seconds - untraced_s) / untraced_s,
          "frac");
  res.absent = {"datagen.make_fleet_s", "forecast.", "stream.",
                "alloc.forecast.",      "alloc.stream.", "self.forecast_s",
                "self.stream_s"};
  return res;
}

}  // namespace perfbench
