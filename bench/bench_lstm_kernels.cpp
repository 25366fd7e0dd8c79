// Microbench of the LSTM training fast path at the paper's forecaster shape
// (batch 32, seq 24, hidden 64) and of one training step of the paper's
// LSTM autoencoder (anomaly::LstmAutoencoder: LSTM 50 -> 25, RepeatVector,
// 25 -> 50, both Dropout(0.2) layers, window 24): step throughput plus
// *heap allocations per step* — the metric the workspace/fused-kernel work
// drives to zero and the perf-smoke CI job pins (allocation counts are
// deterministic; timings are not).  Writes BENCH_kernels.json.
//
//   bench_lstm_kernels                 # full run, prints + writes JSON
//   bench_lstm_kernels --check-allocs  # short run; exit 1 if the steady
//                                      # state still allocates
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "alloc_counter.hpp"
#include "anomaly/autoencoder.hpp"
#include "data/csv.hpp"
#include "metrics/timer.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "nn/dense.hpp"
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
    const Tensor3 dx = lstm.backward(grad);
    if (out.size() + dx.size() == 0) std::abort();  // keep the work alive
  };
  const StepStats stats = measure(warmup, iters, step);
  sample_latency(latency, step);
  return stats;
}

/// A complete training step of the paper-shaped forecaster:
/// forward, loss, backward, Adam update.
StepStats bench_train_step(std::size_t warmup, std::size_t iters,
                           obs::Histogram* latency) {
  Rng rng(2);
  nn::Sequential model;
  model.emplace<nn::Lstm>(kHidden, /*return_sequences=*/false, rng, 1);
  model.emplace<nn::Dense>(8, nn::Activation::kRelu, rng, kHidden);
  model.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 8);
  nn::MseLoss loss;
  nn::Adam opt(1e-3f);
  nn::Trainer trainer(model, loss, opt, rng);

  Tensor3 x(kBatch, kSeq, 1), y(kBatch, 1, 1);
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
  std::printf("%-14s %10.1f steps/s   %8.1f allocs/step   %10.0f B/step\n",
              name, s.steps_per_sec, s.allocs_per_step, s.bytes_per_step);
}

void write_json(const StepStats& kernel, const StepStats& train,
                const StepStats& ae) {
  std::ofstream out("BENCH_kernels.json");
  auto entry = [&](const char* name, const StepStats& s, const char* tail) {
    out << "  \"" << name << "\": {\"steps_per_sec\": " << s.steps_per_sec
        << ", \"allocs_per_step\": " << s.allocs_per_step
        << ", \"bytes_per_step\": " << s.bytes_per_step << "}" << tail
        << "\n";
  };
  const anomaly::AutoencoderConfig ae_cfg;
  out << "{\n  \"config\": {\"batch\": " << kBatch << ", \"seq\": " << kSeq
      << ", \"hidden\": " << kHidden
      << ", \"ae_units\": [" << ae_cfg.encoder_units << ", "
      << ae_cfg.latent_units << "], \"ae_dropout\": " << ae_cfg.dropout
      << "},\n";
  entry("lstm_fwd_bwd", kernel, ",");
  entry("train_step", train, ",");
  entry("ae_train_step", ae, "");
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

  // Telemetry is skipped entirely under --check-allocs: the TraceWriter and
  // the latency-sampling pass both touch the heap, and that mode exists to
  // prove the training steady state does not.
  evfl::obs::Registry registry;
  std::unique_ptr<evfl::obs::TraceWriter> trace;
  evfl::obs::Histogram* kernel_hist = nullptr;
  evfl::obs::Histogram* train_hist = nullptr;
  evfl::obs::Histogram* ae_hist = nullptr;
  std::string trace_path, metrics_path;
  if (!check_allocs) {
    trace_path = evfl::data::artifact_path("kernels_trace.jsonl");
    metrics_path = evfl::data::artifact_path("kernels_metrics.json");
    trace = std::make_unique<evfl::obs::TraceWriter>(trace_path);
    kernel_hist = &registry.histogram("lstm_fwd_bwd_step_seconds");
    train_hist = &registry.histogram("train_step_seconds");
    ae_hist = &registry.histogram("ae_train_step_seconds");
  }

  const std::uint64_t t0 = trace ? trace->now_us() : 0;
  const StepStats kernel = bench_lstm_fwd_bwd(warmup, iters, kernel_hist);
  if (trace) {
    trace->complete("bench.lstm_fwd_bwd", "bench", t0, trace->now_us() - t0);
  }
  const std::uint64_t t1 = trace ? trace->now_us() : 0;
  const StepStats train = bench_train_step(warmup, iters, train_hist);
  if (trace) {
    trace->complete("bench.train_step", "bench", t1, trace->now_us() - t1);
  }
  const std::uint64_t t2 = trace ? trace->now_us() : 0;
  const StepStats ae = bench_ae_train_step(warmup, iters, ae_hist);
  if (trace) {
    trace->complete("bench.ae_train_step", "bench", t2, trace->now_us() - t2);
    trace->counter("lstm_fwd_bwd.steps_per_sec", kernel.steps_per_sec);
    trace->counter("train_step.steps_per_sec", train.steps_per_sec);
    trace->counter("ae_train_step.steps_per_sec", ae.steps_per_sec);
    trace->flush();
  }
  std::printf("=== LSTM kernel bench (batch %zu, seq %zu, hidden %zu) ===\n",
              kBatch, kSeq, kHidden);
  print_stats("lstm_fwd_bwd", kernel);
  print_stats("train_step", train);
  print_stats("ae_train_step", ae);

  if (check_allocs) {
    // The deterministic regression gate: the steady-state training step
    // must not touch the heap at all.
    if (kernel.allocs_per_step > 0.0 || train.allocs_per_step > 0.0 ||
        ae.allocs_per_step > 0.0) {
      std::printf("FAIL: steady-state heap allocations detected "
                  "(lstm_fwd_bwd %.1f/step, train_step %.1f/step, "
                  "ae_train_step %.1f/step)\n",
                  kernel.allocs_per_step, train.allocs_per_step,
                  ae.allocs_per_step);
      return 1;
    }
    std::printf("OK: steady state is allocation-free\n");
    return 0;
  }

  write_json(kernel, train, ae);
  std::printf("wrote BENCH_kernels.json\n");

  {
    std::ofstream metrics(metrics_path);
    registry.write_json(metrics);
    metrics << "\n";
  }
  std::printf("latency p50/p95/p99 (ms): lstm_fwd_bwd %.3f/%.3f/%.3f, "
              "train_step %.3f/%.3f/%.3f, ae_train_step %.3f/%.3f/%.3f\n",
              kernel_hist->quantile(0.50) * 1e3,
              kernel_hist->quantile(0.95) * 1e3,
              kernel_hist->quantile(0.99) * 1e3,
              train_hist->quantile(0.50) * 1e3,
              train_hist->quantile(0.95) * 1e3,
              train_hist->quantile(0.99) * 1e3,
              ae_hist->quantile(0.50) * 1e3, ae_hist->quantile(0.95) * 1e3,
              ae_hist->quantile(0.99) * 1e3);
  std::printf("trace: %s\nmetrics: %s\n", trace_path.c_str(),
              metrics_path.c_str());
  return 0;
}
