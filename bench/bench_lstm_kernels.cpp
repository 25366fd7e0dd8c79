// Microbench of the LSTM training fast path: an LSTM forward+backward and
// a forecaster training step at batch 32, seq 24, hidden 64; the two
// forecaster shapes perfbench trains (the paper's LSTM 50 -> Dense 10 ->
// Dense 1 at seq 24, and fleet_rounds' leaf LSTM 8 -> Dense 4 -> Dense 1
// at seq 12, both at batch 32), each also as a one-window predict, and the
// leaf's ragged epoch tail (a 32-row then a 20-row step: its 84 windows
// run as 32 + 32 + 20); and one training step of the paper's LSTM
// autoencoder (anomaly::LstmAutoencoder: LSTM 50 -> 25, RepeatVector,
// 25 -> 50, both Dropout(0.2) layers, window 24): step throughput plus
// *heap allocations per step* — the metric the workspace/fused-kernel work
// drives to zero and the perf-smoke CI job pins (allocation counts are
// deterministic; timings are not).  Writes BENCH_kernels.json.
//
//   bench_lstm_kernels                 # full run, prints + writes JSON
//   bench_lstm_kernels --check-allocs  # short run; exit 1 if the steady
//                                      # state still allocates
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "anomaly/autoencoder.hpp"
#include "data/csv.hpp"
#include "forecast/model.hpp"
#include "metrics/timer.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;
using tensor::Rng;
using tensor::Tensor3;

constexpr std::size_t kBatch = 32;
constexpr std::size_t kSeq = 24;
constexpr std::size_t kHidden = 64;

struct StepStats {
  double steps_per_sec = 0.0;
  double allocs_per_step = 0.0;
  double bytes_per_step = 0.0;
};

/// Time `step()` over `iters` iterations after `warmup` unmeasured ones;
/// allocation counters are sampled around the measured region only.
template <typename Fn>
StepStats measure(std::size_t warmup, std::size_t iters, Fn&& step) {
  for (std::size_t i = 0; i < warmup; ++i) step();
  const bench::AllocCount a0 = bench::alloc_now();
  const metrics::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) step();
  const double secs = timer.seconds();
  const bench::AllocCount a1 = bench::alloc_now();
  StepStats s;
  s.steps_per_sec = secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  s.allocs_per_step = static_cast<double>(a1.count - a0.count) / iters;
  s.bytes_per_step = static_cast<double>(a1.bytes - a0.bytes) / iters;
  return s;
}

/// Per-step latency distribution, sampled in a separate pass AFTER the
/// throughput measurement so the timed region above stays untouched (the
/// perf-smoke gate compares steps/s across builds).
template <typename Fn>
void sample_latency(obs::Histogram* hist, Fn&& step) {
  if (hist == nullptr) return;
  constexpr std::size_t kSamples = 50;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const metrics::WallTimer timer;
    step();
    hist->record(timer.seconds());
  }
}

/// Forward+backward through a single Lstm layer (the kernel under test).
StepStats bench_lstm_fwd_bwd(std::size_t warmup, std::size_t iters,
                             obs::Histogram* latency) {
  Rng rng(1);
  nn::Lstm lstm(kHidden, /*return_sequences=*/true, rng, 1);
  Tensor3 x(kBatch, kSeq, 1), grad(kBatch, kSeq, kHidden);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = rng.normal(0.0f, 0.01f);
  }
  const auto step = [&] {
    const Tensor3 out = lstm.forward(x, /*training=*/true);
    const Tensor3 dx = lstm.backward(grad, /*input_grad=*/true);
    if (out.size() + dx.size() == 0) std::abort();  // keep the work alive
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

/// One Trainer::train_batch of a forecast::make_forecaster model at batch
/// 32 (forward, loss, backward, Adam update): the step every federated
/// client runs.
StepStats bench_forecaster_step(const forecast::ForecasterConfig& mc,
                                std::uint64_t seed, std::size_t warmup,
                                std::size_t iters, obs::Histogram* latency) {
  Rng rng(seed);
  nn::Sequential model = forecast::make_forecaster(mc, rng);
  nn::MseLoss loss;
  nn::Adam opt(mc.learning_rate);
  nn::Trainer trainer(model, loss, opt, rng);

  Tensor3 x(kBatch, mc.sequence_length, mc.input_features), y(kBatch, 1, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = rng.uniform(0, 1);

  const auto step = [&] {
    const float l = trainer.train_batch(x, y);
    if (!(l >= 0.0f)) std::abort();
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

/// One Sequential::predict of a single window: the request perfbench's
/// paper_pipeline serves after every round.
StepStats bench_forecaster_predict1(const forecast::ForecasterConfig& mc,
                                    std::uint64_t seed, std::size_t warmup,
                                    std::size_t iters,
                                    obs::Histogram* latency) {
  Rng rng(seed);
  nn::Sequential model = forecast::make_forecaster(mc, rng);
  Tensor3 x(1, mc.sequence_length, mc.input_features);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);

  const auto step = [&] {
    const Tensor3 y = model.predict(x);
    if (!std::isfinite(y.data()[0])) std::abort();
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

/// Two Trainer::train_batch calls, 32 rows then 20: the last two batches
/// of an epoch over 84 windows, where every layer's retained buffers
/// change shape twice per step.
StepStats bench_ragged_step(const forecast::ForecasterConfig& mc,
                            std::uint64_t seed, std::size_t warmup,
                            std::size_t iters, obs::Histogram* latency) {
  Rng rng(seed);
  nn::Sequential model = forecast::make_forecaster(mc, rng);
  nn::MseLoss loss;
  nn::Adam opt(mc.learning_rate);
  nn::Trainer trainer(model, loss, opt, rng);

  Tensor3 x32(32, mc.sequence_length, mc.input_features), y32(32, 1, 1);
  Tensor3 x20(20, mc.sequence_length, mc.input_features), y20(20, 1, 1);
  for (Tensor3* t : {&x32, &y32, &x20, &y20}) {
    for (std::size_t i = 0; i < t->size(); ++i) {
      t->data()[i] = rng.uniform(0, 1);
    }
  }

  const auto step = [&] {
    const float l = trainer.train_batch(x32, y32) + trainer.train_batch(x20, y20);
    if (!(l >= 0.0f)) std::abort();
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

/// The hidden-64 forecaster `train_step` has always timed: LSTM 64,
/// Dense 8, seq 24.
forecast::ForecasterConfig hidden64_forecaster() {
  forecast::ForecasterConfig mc;
  mc.sequence_length = kSeq;
  mc.lstm_units = kHidden;
  mc.dense_units = 8;
  return mc;
}

/// perfbench paper_pipeline's forecaster: LSTM 50 on one input, seq 24.
forecast::ForecasterConfig paper_forecaster() { return {}; }

/// perfbench fleet_rounds' leaf model: LSTM 8, Dense 4, seq 12.
forecast::ForecasterConfig fleet_leaf() {
  forecast::ForecasterConfig mc;
  mc.sequence_length = 12;
  mc.lstm_units = 8;
  mc.dense_units = 4;
  return mc;
}

/// One Trainer::train_batch of the paper's LSTM autoencoder on a batch of
/// 32 windows: both Dropout layers draw masks, and BPTT runs the H = 25
/// and H = 50 narrow products.
StepStats bench_ae_train_step(std::size_t warmup, std::size_t iters,
                              obs::Histogram* latency) {
  Rng rng(3);
  anomaly::AutoencoderConfig cfg;
  cfg.window = kSeq;
  anomaly::LstmAutoencoder ae(cfg, rng);
  nn::MseLoss loss;
  nn::Adam opt(cfg.learning_rate);
  nn::Trainer trainer(ae.model(), loss, opt, rng);

  Tensor3 x(kBatch, kSeq, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);

  const auto step = [&] {
    const float l = trainer.train_batch(x, x);
    if (!(l >= 0.0f)) std::abort();
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

void print_stats(const char* name, const StepStats& s) {
  std::printf("%-26s %10.1f steps/s   %8.1f allocs/step   %10.0f B/step\n",
              name, s.steps_per_sec, s.allocs_per_step, s.bytes_per_step);
}

/// One measured shape: its name (JSON key and trace span), its latency
/// histogram's name, and its result.
struct Row {
  const char* name;
  const char* histogram;
  std::function<StepStats(obs::Histogram*)> run;
  obs::Histogram* latency = nullptr;
  StepStats stats{};
};

void write_json(const std::vector<Row>& rows) {
  std::ofstream out("BENCH_kernels.json");
  const anomaly::AutoencoderConfig ae_cfg;
  const auto shape = [](const forecast::ForecasterConfig& mc) {
    return "{\"seq\": " + std::to_string(mc.sequence_length) +
           ", \"lstm\": " + std::to_string(mc.lstm_units) +
           ", \"dense\": " + std::to_string(mc.dense_units) + "}";
  };
  out << "{\n  \"config\": {\"batch\": " << kBatch << ", \"seq\": " << kSeq
      << ", \"hidden\": " << kHidden
      << ", \"ae_units\": [" << ae_cfg.encoder_units << ", "
      << ae_cfg.latent_units << "], \"ae_dropout\": " << ae_cfg.dropout
      << ", \"paper_forecaster\": " << shape(paper_forecaster())
      << ", \"fleet_leaf\": " << shape(fleet_leaf()) << "},\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StepStats& s = rows[i].stats;
    out << "  \"" << rows[i].name << "\": {\"steps_per_sec\": "
        << s.steps_per_sec << ", \"allocs_per_step\": " << s.allocs_per_step
        << ", \"bytes_per_step\": " << s.bytes_per_step << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool check_allocs = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-allocs") == 0) check_allocs = true;
  }

  const std::size_t warmup = check_allocs ? 3 : 10;
  const std::size_t iters = check_allocs ? 5 : 200;
  // A one-window predict takes 1-15 us, a training step 20 us to 4 ms.
  const std::size_t predict_iters = check_allocs ? 5 : 20000;
  std::vector<Row> rows = {
      {"lstm_fwd_bwd", "lstm_fwd_bwd_step_seconds",
       [&](obs::Histogram* h) { return bench_lstm_fwd_bwd(warmup, iters, h); }},
      {"train_step", "train_step_seconds",
       [&](obs::Histogram* h) {
         return bench_forecaster_step(hidden64_forecaster(), 2, warmup, iters,
                                      h);
       }},
      {"paper_forecaster_step", "paper_forecaster_step_seconds",
       [&](obs::Histogram* h) {
         return bench_forecaster_step(paper_forecaster(), 4, warmup, iters, h);
       }},
      {"fleet_leaf_step", "fleet_leaf_step_seconds",
       [&](obs::Histogram* h) {
         return bench_forecaster_step(fleet_leaf(), 5, warmup, iters, h);
       }},
      {"fleet_leaf_ragged_step", "fleet_leaf_ragged_step_seconds",
       [&](obs::Histogram* h) {
         return bench_ragged_step(fleet_leaf(), 6, warmup, iters, h);
       }},
      {"paper_forecaster_predict1", "paper_forecaster_predict1_seconds",
       [&](obs::Histogram* h) {
         return bench_forecaster_predict1(paper_forecaster(), 7, warmup,
                                          predict_iters, h);
       }},
      {"fleet_leaf_predict1", "fleet_leaf_predict1_seconds",
       [&](obs::Histogram* h) {
         return bench_forecaster_predict1(fleet_leaf(), 8, warmup,
                                          predict_iters, h);
       }},
      {"ae_train_step", "ae_train_step_seconds",
       [&](obs::Histogram* h) {
         return bench_ae_train_step(warmup, iters, h);
       }},
  };

  // Telemetry is skipped entirely under --check-allocs: the TraceWriter and
  // the latency-sampling pass both touch the heap, and that mode exists to
  // prove the training steady state does not.
  obs::Registry registry;
  std::unique_ptr<obs::TraceWriter> trace;
  std::string trace_path, metrics_path;
  if (!check_allocs) {
    trace_path = data::artifact_path("kernels_trace.jsonl");
    metrics_path = data::artifact_path("kernels_metrics.json");
    trace = std::make_unique<obs::TraceWriter>(trace_path);
    for (Row& row : rows) row.latency = &registry.histogram(row.histogram);
  }

  for (Row& row : rows) {
    const std::uint64_t t0 = trace ? trace->now_us() : 0;
    row.stats = row.run(row.latency);
    if (trace) {
      const std::string span = std::string("bench.") + row.name;
      trace->complete(span.c_str(), "bench", t0, trace->now_us() - t0);
    }
  }
  if (trace) {
    for (const Row& row : rows) {
      const std::string counter = std::string(row.name) + ".steps_per_sec";
      trace->counter(counter.c_str(), row.stats.steps_per_sec);
    }
    trace->flush();
  }
  std::printf("=== LSTM kernel bench (batch %zu; fwd_bwd and train_step at "
              "seq %zu, hidden %zu) ===\n",
              kBatch, kSeq, kHidden);
  for (const Row& row : rows) print_stats(row.name, row.stats);

  if (check_allocs) {
    // The deterministic regression gate: the steady-state training step
    // must not touch the heap at all.
    bool clean = true;
    for (const Row& row : rows) clean &= row.stats.allocs_per_step == 0.0;
    if (!clean) {
      std::printf("FAIL: steady-state heap allocations detected (");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("%s%s %.1f/step", i > 0 ? ", " : "", rows[i].name,
                    rows[i].stats.allocs_per_step);
      }
      std::printf(")\n");
      return 1;
    }
    std::printf("OK: steady state is allocation-free\n");
    return 0;
  }

  write_json(rows);
  std::printf("wrote BENCH_kernels.json\n");

  {
    std::ofstream metrics(metrics_path);
    registry.write_json(metrics);
    metrics << "\n";
  }
  std::printf("latency p50/p95/p99 (ms):");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const obs::Histogram& h = *rows[i].latency;
    std::printf("%s %s %.3f/%.3f/%.3f", i > 0 ? "," : "", rows[i].name,
                h.quantile(0.50) * 1e3, h.quantile(0.95) * 1e3,
                h.quantile(0.99) * 1e3);
  }
  std::printf("\ntrace: %s\nmetrics: %s\n", trace_path.c_str(),
              metrics_path.c_str());
  return 0;
}
