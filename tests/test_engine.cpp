#include "forecast/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace evfl::forecast {
namespace {

using tensor::Rng;
using tensor::Tensor3;

/// Small-but-real forecaster for fast tests; 4H = 64 is the narrowest
/// recurrent product whose 1- and 2-row remainders run the GEMM's widest
/// tiles (DESIGN.md §8).
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
/// whole 8-wide groups, 50 is the paper's shape.  Where the target has
/// AVX-512F, H = 8 (fleet_rounds' leaf) runs rows in pairs, and at H = 25,
/// 13 and 50 the last H % 8 columns of each 16-row block run across rows.
void expect_rows_bit_identical_to_predict(
    std::initializer_list<std::size_t> widths) {
  for (const std::size_t units : {8, 13, 16, 25, 50}) {
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
  // odd and multi-tile widths exercise the row and column tails, 3 runs a
  // 2-row and a 1-row remainder tile in one call, and 33 two 16-row gate
  // blocks and a lone row.
  expect_rows_bit_identical_to_predict({2, 3, 17, 33, 64});
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
  EXPECT_THROW(Engine(cfg, EngineConfig{0}), Error);
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

}  // namespace
}  // namespace evfl::forecast
