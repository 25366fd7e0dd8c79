// Serving-path bench at the paper's forecaster shape: forecasts/sec for
// the per-series baseline (Sequential::predict, one series per call — the
// path serving used before forecast::Engine) versus batched engine
// scoring at --serve-batch rows and at 256 rows (the replay batch of
// perfbench's stream_soak), plus *heap allocations per scoring batch* —
// the deterministic metric the perf-smoke CI job pins (timings are
// trend-watched via the JSON artifact, not gated; shared runners make
// them noisy).  Writes BENCH_serving.json.
//
//   bench_serving                  # full run: trains briefly, prints
//                                  # throughput/R2/latency, writes JSON
//   bench_serving --check-allocs   # short run; exit 1 if a steady-state
//                                  # scoring batch of either width still
//                                  # allocates
//
// Honors --serve-batch N and --threads N (adds a pool-parallel engine
// measurement; note ThreadPool dispatch itself allocates, so the
// zero-alloc gate always measures the serial path).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/config.hpp"
#include "data/csv.hpp"
#include "data/window.hpp"
#include "forecast/engine.hpp"
#include "metrics/regression.hpp"
#include "metrics/timer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;
using tensor::Rng;
using tensor::Tensor3;

/// The second scoring width: perfbench's stream_soak replays 256 zones per
/// batch.
constexpr std::size_t kWideBatch = 256;

struct BatchStats {
  double forecasts_per_sec = 0.0;
  double batches_per_sec = 0.0;
  double allocs_per_batch = 0.0;
  double bytes_per_batch = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Time one scoring batch over `iters` iterations after `warmup` unmeasured
/// ones; allocation counters sample the measured region only.  Throughput
/// is the fastest of several timing windows — on a shared runner a single
/// wall-clock window absorbs co-tenant noise bursts, and the minimum is
/// the standard low-variance estimator of intrinsic compute cost (the
/// per-batch latency histogram still reflects the full distribution).  A
/// separate latency pass afterwards fills `hist` without perturbing the
/// timed loop.
template <typename Fn>
BatchStats measure(std::size_t warmup, std::size_t iters, std::size_t batch,
                   obs::Histogram* hist, Fn&& step) {
  for (std::size_t i = 0; i < warmup; ++i) step();
  const std::size_t windows = iters >= 5 ? 5 : 1;
  const std::size_t per_window = iters / windows;
  const bench::AllocCount a0 = bench::alloc_now();
  double best_secs = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const metrics::WallTimer timer;
    for (std::size_t i = 0; i < per_window; ++i) step();
    const double secs = timer.seconds();
    if (w == 0 || secs < best_secs) best_secs = secs;
  }
  const bench::AllocCount a1 = bench::alloc_now();
  const std::size_t measured = windows * per_window;
  BatchStats s;
  s.batches_per_sec =
      best_secs > 0.0 ? static_cast<double>(per_window) / best_secs : 0.0;
  s.forecasts_per_sec = s.batches_per_sec * static_cast<double>(batch);
  s.allocs_per_batch = static_cast<double>(a1.count - a0.count) / measured;
  s.bytes_per_batch = static_cast<double>(a1.bytes - a0.bytes) / measured;
  if (hist != nullptr) {
    constexpr std::size_t kSamples = 100;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const metrics::WallTimer t;
      step();
      hist->record(t.seconds());
    }
    s.p50_ms = hist->quantile(0.50) * 1e3;
    s.p99_ms = hist->quantile(0.99) * 1e3;
  }
  return s;
}

void print_stats(const char* name, const BatchStats& s) {
  std::printf(
      "%-22s %12.0f forecasts/s  %8.1f allocs/batch  p50 %7.3f ms  "
      "p99 %7.3f ms\n",
      name, s.forecasts_per_sec, s.allocs_per_batch, s.p50_ms, s.p99_ms);
}

void json_entry(std::ofstream& out, const char* name, const BatchStats& s,
                const char* tail) {
  out << "  \"" << name << "\": {\"forecasts_per_sec\": "
      << s.forecasts_per_sec << ", \"batches_per_sec\": " << s.batches_per_sec
      << ", \"allocs_per_batch\": " << s.allocs_per_batch
      << ", \"bytes_per_batch\": " << s.bytes_per_batch
      << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms << "}"
      << tail << "\n";
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

  const std::size_t batch = cfg.serve_batch;
  const forecast::ForecasterConfig& model_cfg = cfg.forecaster;

  // Build the paper-shaped forecaster.  The full run trains it briefly on
  // a periodic signal so the reported R2 is that of a model that has
  // actually learned something; the alloc gate skips training (allocation
  // behavior does not depend on weight values).
  Rng rng(cfg.seed);
  nn::Sequential model = forecast::make_forecaster(model_cfg, rng);

  data::SequenceDataset ds;
  {
    std::vector<float> wave;
    const std::size_t hours = check_allocs ? 200 : 1200;
    for (std::size_t i = 0; i < hours; ++i) {
      wave.push_back(0.5f +
                     0.4f * std::sin(static_cast<float>(i) * 2.0f * 3.14159f /
                                     static_cast<float>(
                                         model_cfg.sequence_length)) +
                     0.02f * rng.uniform(-1.0f, 1.0f));
    }
    ds = data::make_forecast_sequences(wave, model_cfg.sequence_length);
  }
  if (!check_allocs) {
    nn::MseLoss loss;
    nn::Adam adam(1e-2f);
    nn::Trainer trainer(model, loss, adam, rng);
    nn::FitConfig fit;
    fit.epochs = 8;
    fit.batch_size = model_cfg.batch_size;
    trainer.fit(ds.x, ds.y, fit);
  }
  const std::vector<float> weights = model.get_weights();

  // One fixed scoring batch per width, drawn from the dataset (wraps if
  // needed).
  const auto scoring_batch = [&](std::size_t rows) {
    Tensor3 t(rows, model_cfg.sequence_length, model_cfg.input_features);
    for (std::size_t i = 0; i < rows; ++i) {
      ds.x.copy_sample_into(i % ds.x.batch(), t, i);
    }
    return t;
  };
  const Tensor3 x = scoring_batch(batch);
  const Tensor3 x_wide = scoring_batch(kWideBatch);

  const std::size_t warmup = check_allocs ? 3 : 10;
  const std::size_t iters = check_allocs ? 10 : 100;

  obs::Registry registry;
  obs::Histogram* base_hist = nullptr;
  obs::Histogram* fp32_hist = nullptr;
  obs::Histogram* wide_hist = nullptr;
  obs::Histogram* pool_hist = nullptr;
  if (!check_allocs) {
    base_hist = &registry.histogram("serving.baseline_batch_seconds");
    fp32_hist = &registry.histogram("serving.fp32_batch_seconds");
    wide_hist = &registry.histogram("serving.fp32_wide_batch_seconds");
    pool_hist = &registry.histogram("serving.fp32_pool_batch_seconds");
  }

  // --- per-series baseline: the pre-engine serving path --------------------
  // One Sequential::predict per series, sequences pre-sliced so the loop
  // measures the model path, not tensor slicing.
  std::vector<Tensor3> singles;
  singles.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    singles.push_back(x.batch_slice(i, i + 1));
  }
  std::vector<float> sink(batch);
  const BatchStats baseline =
      measure(warmup, iters, batch, base_hist, [&] {
        for (std::size_t i = 0; i < batch; ++i) {
          const Tensor3 out = model.predict(singles[i]);
          sink[i] = out(0, 0, 0);
        }
      });

  // --- engine ---------------------------------------------------------------
  forecast::EngineConfig fp32_cfg;
  fp32_cfg.max_batch = batch;
  forecast::Engine fp32(model_cfg, fp32_cfg,
                        check_allocs ? nullptr : &registry);
  fp32.publish(weights);

  std::vector<float> out(batch);
  const BatchStats fp32_stats = measure(warmup, iters, batch, fp32_hist,
                                        [&] { fp32.score(x, out.data()); });

  // The same weights at the wide width, on an engine of its own so the
  // registry's engine.* telemetry keeps describing --serve-batch.
  forecast::EngineConfig wide_cfg;
  wide_cfg.max_batch = kWideBatch;
  forecast::Engine wide(model_cfg, wide_cfg);
  wide.publish(weights);
  std::vector<float> out_wide(kWideBatch);
  const BatchStats wide_stats =
      measure(warmup, iters, kWideBatch, wide_hist,
              [&] { wide.score(x_wide, out_wide.data()); });

  std::printf("=== serving bench (batch %zu and %zu, seq %zu, hidden %zu, "
              "threads %zu) ===\n",
              batch, kWideBatch, model_cfg.sequence_length,
              model_cfg.lstm_units, cfg.threads);
  print_stats("baseline_per_series", baseline);
  print_stats("engine_fp32", fp32_stats);
  print_stats("engine_fp32_wide", wide_stats);

  const double speedup_fp32 =
      baseline.forecasts_per_sec > 0.0
          ? fp32_stats.forecasts_per_sec / baseline.forecasts_per_sec
          : 0.0;
  std::printf("speedup: fp32 batch vs per-series %.2fx\n", speedup_fp32);

  if (check_allocs) {
    // The deterministic regression gate: a steady-state scoring batch must
    // not touch the heap, at either width.
    if (fp32_stats.allocs_per_batch > 0.0 ||
        wide_stats.allocs_per_batch > 0.0) {
      std::printf(
          "FAIL: steady-state scoring allocates (%.1f/batch at %zu rows, "
          "%.1f/batch at %zu rows)\n",
          fp32_stats.allocs_per_batch, batch, wide_stats.allocs_per_batch,
          kWideBatch);
      return 1;
    }
    std::printf("OK: steady-state scoring is allocation-free at %zu and %zu "
                "rows\n",
                batch, kWideBatch);
    return 0;
  }

  // --- pool-parallel engine scoring (reported, never alloc-gated) ----------
  BatchStats fp32_mt;
  if (cfg.threads != 1) {
    runtime::ThreadPool pool(cfg.threads);
    runtime::RunContext ctx;
    ctx.pool = &pool;
    fp32_mt = measure(warmup, iters, batch, pool_hist,
                      [&] { fp32.score(x, out.data(), &ctx); });
    print_stats("engine_fp32_pool", fp32_mt);
  }

  // --- accuracy of the served forecasts -------------------------------------
  forecast::EngineConfig eval_cfg;
  eval_cfg.max_batch = ds.x.batch();
  forecast::Engine fp32_eval(model_cfg, eval_cfg);
  fp32_eval.publish(weights);

  std::vector<float> pred_fp32, actual(ds.x.batch());
  fp32_eval.score(ds.x, pred_fp32);
  for (std::size_t i = 0; i < actual.size(); ++i) actual[i] = ds.y(i, 0, 0);
  const double r2_fp32 = metrics::r2_score(actual, pred_fp32);
  std::printf("R2: fp32 %.4f\n", r2_fp32);

  {
    std::ofstream json("BENCH_serving.json");
    json << "{\n  \"config\": {\"batch\": " << batch
         << ", \"wide_batch\": " << kWideBatch
         << ", \"seq\": " << model_cfg.sequence_length
         << ", \"hidden\": " << model_cfg.lstm_units
         << ", \"dense\": " << model_cfg.dense_units
         << ", \"threads\": " << cfg.threads << "},\n";
    json_entry(json, "baseline_per_series", baseline, ",");
    json_entry(json, "engine_fp32", fp32_stats, ",");
    json_entry(json, "engine_fp32_wide", wide_stats, ",");
    if (cfg.threads != 1) json_entry(json, "engine_fp32_pool", fp32_mt, ",");
    json << "  \"speedup_fp32_vs_baseline\": " << speedup_fp32 << ",\n"
         << "  \"r2_fp32\": " << r2_fp32 << "\n}\n";
  }
  std::printf("wrote BENCH_serving.json\n");

  const std::string metrics_path = data::artifact_path("serving_metrics.json");
  {
    std::ofstream metrics(metrics_path);
    registry.write_json(metrics);
    metrics << "\n";
  }
  std::printf("metrics: %s\n", metrics_path.c_str());
  return 0;
}
