#include "forecast/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <initializer_list>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "data/window.hpp"
#include "metrics/regression.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace evfl::forecast {
namespace {

using tensor::Rng;
using tensor::Tensor3;

/// Small-but-real forecaster for fast tests; 4H = 64 exercises both the
/// 8-wide int8 SIMD groups and the fp32 blocked kernels.
ForecasterConfig small_config() {
  ForecasterConfig cfg;
  cfg.lstm_units = 16;
  cfg.dense_units = 6;
  cfg.sequence_length = 12;
  return cfg;
}

Tensor3 random_batch(std::size_t n, std::size_t t, std::size_t f,
                     std::uint64_t seed) {
  Tensor3 x(n, t, f);
  Rng rng(seed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = rng.uniform(-1.0f, 1.0f);
  }
  return x;
}

/// The engine runs Lstm::forward's FMA sequence and gate kernel, so every
/// row equals Sequential::predict of that row alone, bit for bit, at any
/// batch width.  H = 13 puts gate columns in the scalar tail, 16 fills
/// whole 8-wide groups, 50 is the paper's shape.
void expect_rows_bit_identical_to_predict(
    std::initializer_list<std::size_t> widths) {
  for (const std::size_t units : {13, 16, 50}) {
    ForecasterConfig cfg = small_config();
    cfg.lstm_units = units;
    Rng rng(7 + units);
    nn::Sequential model = make_forecaster(cfg, rng);

    Engine engine(cfg);
    engine.publish(model.get_weights());

    for (const std::size_t batch : widths) {
      const Tensor3 x = random_batch(batch, cfg.sequence_length,
                                     cfg.input_features, 100 + batch);
      std::vector<float> got;
      engine.score(x, got);
      ASSERT_EQ(got.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        const Tensor3 want = model.predict(x.batch_slice(i, i + 1));
        EXPECT_EQ(got[i], want(0, 0, 0))
            << "H " << units << " batch " << batch << " row " << i;
      }
    }
  }
}

TEST(Engine, BatchOfOneBitIdenticalToPredict) {
  expect_rows_bit_identical_to_predict({1});
}

TEST(Engine, WideBatchRowsTrackPredictClosely) {
  // Wide batches share the batch-of-1 kernels, so "closely" is bitwise:
  // odd and multi-panel widths exercise the row and column tails.
  expect_rows_bit_identical_to_predict({2, 17, 64});
}

TEST(Engine, RowResultsIndependentOfBatchComposition) {
  const ForecasterConfig cfg = small_config();
  Rng rng(8);
  nn::Sequential model = make_forecaster(cfg, rng);

  Engine engine(cfg);
  engine.publish(model.get_weights());

  const std::size_t batch = 17;
  const Tensor3 x =
      random_batch(batch, cfg.sequence_length, cfg.input_features, 9);
  std::vector<float> whole;
  engine.score(x, whole);

  // Scoring the same rows in two sub-batches must give the same bits: a
  // row's result depends only on its own data.
  std::vector<float> front, back;
  engine.score(x.batch_slice(0, 9), front);
  engine.score(x.batch_slice(9, batch), back);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(whole[i], front[i]);
  for (std::size_t i = 9; i < batch; ++i) EXPECT_EQ(whole[i], back[i - 9]);
}

TEST(Engine, PoolParallelBitIdenticalToSerial) {
  const ForecasterConfig cfg = small_config();
  Rng rng(10);
  nn::Sequential model = make_forecaster(cfg, rng);

  Engine engine(cfg);
  engine.publish(model.get_weights());

  const Tensor3 x =
      random_batch(64, cfg.sequence_length, cfg.input_features, 11);
  std::vector<float> serial;
  engine.score(x, serial);

  runtime::ThreadPool pool(4);
  runtime::RunContext ctx;
  ctx.pool = &pool;
  std::vector<float> parallel;
  engine.score(x, parallel, &ctx);
  EXPECT_EQ(serial, parallel);
}

TEST(Engine, Int8ParallelMatchesSerial) {
  const ForecasterConfig cfg = small_config();
  Rng rng(23);
  nn::Sequential model = make_forecaster(cfg, rng);

  EngineConfig ecfg;
  ecfg.precision = ServePrecision::kInt8;
  Engine engine(cfg, ecfg);
  engine.publish(model.get_weights());

  const Tensor3 x =
      random_batch(48, cfg.sequence_length, cfg.input_features, 24);
  std::vector<float> serial;
  engine.score(x, serial);

  runtime::ThreadPool pool(4);
  runtime::RunContext ctx;
  ctx.pool = &pool;
  std::vector<float> parallel;
  engine.score(x, parallel, &ctx);
  EXPECT_EQ(serial, parallel);
}

TEST(Engine, Int8TracksFp32OnTrainedModel) {
  ForecasterConfig cfg = small_config();

  // Train on a clean periodic signal so both precisions face a learnable
  // task and R2 is meaningfully high.
  std::vector<float> wave;
  for (int i = 0; i < 480; ++i) {
    wave.push_back(0.5f + 0.4f * std::sin(i * 2.0f * 3.14159f /
                                          static_cast<float>(
                                              cfg.sequence_length)));
  }
  const data::SequenceDataset ds =
      data::make_forecast_sequences(wave, cfg.sequence_length);

  Rng rng(12);
  nn::Sequential model = make_forecaster(cfg, rng);
  nn::MseLoss loss;
  nn::Adam adam(1e-2f);
  nn::Trainer trainer(model, loss, adam, rng);
  nn::FitConfig fit;
  fit.epochs = 12;
  trainer.fit(ds.x, ds.y, fit);

  EngineConfig fp32_cfg;
  fp32_cfg.max_batch = ds.x.batch();
  Engine fp32(cfg, fp32_cfg);
  fp32.publish(model.get_weights());

  EngineConfig int8_cfg = fp32_cfg;
  int8_cfg.precision = ServePrecision::kInt8;
  Engine int8(cfg, int8_cfg);
  int8.publish(model.get_weights());

  std::vector<float> pred_fp32, pred_int8, actual(ds.x.batch());
  fp32.score(ds.x, pred_fp32);
  int8.score(ds.x, pred_int8);
  for (std::size_t i = 0; i < actual.size(); ++i) actual[i] = ds.y(i, 0, 0);

  const double r2_fp32 = metrics::r2_score(actual, pred_fp32);
  const double r2_int8 = metrics::r2_score(actual, pred_int8);
  EXPECT_GT(r2_fp32, 0.9);  // the task is learnable; guard the baseline
  // Acceptance bound: int8 snapshots cost at most 0.01 R2.
  EXPECT_LE(r2_fp32 - r2_int8, 0.01);
}

TEST(Engine, PublishSwapsWeightsAndBumpsVersion) {
  const ForecasterConfig cfg = small_config();
  Rng rng(13);
  nn::Sequential model = make_forecaster(cfg, rng);

  Engine engine(cfg);
  EXPECT_EQ(engine.version(), 0u);
  const std::vector<float> w1 = model.get_weights();
  engine.publish(w1);
  EXPECT_EQ(engine.version(), 1u);

  const Tensor3 x =
      random_batch(4, cfg.sequence_length, cfg.input_features, 14);
  std::vector<float> out1;
  engine.score(x, out1);

  std::vector<float> w2 = w1;
  for (float& w : w2) w *= 0.5f;
  engine.publish(w2);
  EXPECT_EQ(engine.version(), 2u);
  std::vector<float> out2;
  engine.score(x, out2);
  EXPECT_NE(out1, out2);  // new snapshot actually serves

  // Third publish reuses the first slot; scores must follow again.
  engine.publish(w1);
  EXPECT_EQ(engine.version(), 3u);
  std::vector<float> out3;
  engine.score(x, out3);
  EXPECT_EQ(out1, out3);  // same weights -> same bits
}

TEST(Engine, RecordsTelemetry) {
  const ForecasterConfig cfg = small_config();
  Rng rng(15);
  nn::Sequential model = make_forecaster(cfg, rng);

  obs::Registry registry;
  Engine engine(cfg, EngineConfig{}, &registry);
  engine.publish(model.get_weights());

  const Tensor3 x =
      random_batch(8, cfg.sequence_length, cfg.input_features, 16);
  std::vector<float> out;
  engine.score(x, out);
  engine.score(x, out);

  EXPECT_DOUBLE_EQ(registry.counter("engine.forecasts_total").value(), 16.0);
  EXPECT_DOUBLE_EQ(registry.counter("engine.batches_total").value(), 2.0);
  EXPECT_EQ(registry.histogram("engine.batch_seconds").count(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.snapshot_version").value(), 1.0);
}

TEST(Engine, ValidatesArguments) {
  const ForecasterConfig cfg = small_config();
  Rng rng(17);
  nn::Sequential model = make_forecaster(cfg, rng);

  EngineConfig ecfg;
  ecfg.max_batch = 8;
  Engine engine(cfg, ecfg);

  const Tensor3 ok =
      random_batch(4, cfg.sequence_length, cfg.input_features, 18);
  std::vector<float> out;
  EXPECT_THROW(engine.score(ok, out), Error);  // score before publish

  engine.publish(model.get_weights());
  EXPECT_NO_THROW(engine.score(ok, out));

  EXPECT_THROW(engine.publish(std::vector<float>(3, 0.0f)), Error);
  const Tensor3 too_big =
      random_batch(9, cfg.sequence_length, cfg.input_features, 19);
  EXPECT_THROW(engine.score(too_big, out), Error);
  const Tensor3 bad_features = random_batch(2, cfg.sequence_length, 2, 20);
  EXPECT_THROW(engine.score(bad_features, out), Error);
  EXPECT_THROW(Engine(cfg, EngineConfig{0, ServePrecision::kFp32}), Error);
}

/// Swap-under-load: scorer threads hammer score() while the main thread
/// alternates between two published weight sets.  Every batch result must
/// equal one snapshot's output in full — a mix would mean a torn read of a
/// half-frozen snapshot.  Run under TSan this also proves the reader /
/// publisher protocol is race-free.
TEST(EngineSwap, ConcurrentScoringSeesOnlyCompleteSnapshots) {
  const ForecasterConfig cfg = small_config();
  Rng rng(21);
  nn::Sequential model = make_forecaster(cfg, rng);

  const std::vector<float> wa = model.get_weights();
  std::vector<float> wb = wa;
  for (float& w : wb) w = -w;

  Engine engine(cfg);
  const Tensor3 x =
      random_batch(8, cfg.sequence_length, cfg.input_features, 22);

  // Reference outputs for both weight sets.
  std::vector<float> ref_a, ref_b;
  engine.publish(wa);
  engine.score(x, ref_a);
  engine.publish(wb);
  engine.score(x, ref_b);
  ASSERT_NE(ref_a, ref_b);

  std::atomic<bool> stop{false};
  std::atomic<int> mixed{0};
  std::vector<std::thread> scorers;
  for (int tidx = 0; tidx < 3; ++tidx) {
    scorers.emplace_back([&]() {
      std::vector<float> out(x.batch());
      while (!stop.load(std::memory_order_acquire)) {
        engine.score(x, out.data());
        if (out != ref_a && out != ref_b) {
          mixed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    engine.publish(i % 2 == 0 ? wa : wb);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : scorers) t.join();

  EXPECT_EQ(mixed.load(), 0);
  EXPECT_EQ(engine.version(), 2u + 50u);
}

TEST(EngineSnapshot, ToStringNamesPrecisions) {
  EXPECT_EQ(to_string(ServePrecision::kFp32), "fp32");
  EXPECT_EQ(to_string(ServePrecision::kInt8), "int8");
}

}  // namespace
}  // namespace evfl::forecast
