#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/dense.hpp"
#include "nn/lstm.hpp"

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

/// y = 2x + 1 with mild noise — learnable by a single linear Dense.
void linear_data(Tensor3& x, Tensor3& y, std::size_t n, Rng& rng) {
  x = Tensor3(n, 1, 1);
  y = Tensor3(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = rng.uniform(-1.0f, 1.0f);
    x(i, 0, 0) = xi;
    y(i, 0, 0) = 2.0f * xi + 1.0f + 0.01f * rng.normal();
  }
}

TEST(Trainer, LearnsLinearMap) {
  Rng rng(1);
  Sequential model;
  model.emplace<Dense>(1, Activation::kLinear, rng, 1);
  MseLoss loss;
  Adam opt(0.05f);
  Trainer trainer(model, loss, opt, rng);

  Tensor3 x, y;
  linear_data(x, y, 256, rng);

  FitConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 32;
  const FitHistory hist = trainer.fit(x, y, cfg);

  EXPECT_EQ(hist.epochs_run, 60u);
  EXPECT_LT(hist.train_loss.back(), 0.01f);
  EXPECT_LT(hist.train_loss.back(), hist.train_loss.front());

  const auto w = model.get_weights();  // [w, b]
  EXPECT_NEAR(w[0], 2.0f, 0.1f);
  EXPECT_NEAR(w[1], 1.0f, 0.1f);
}

TEST(Trainer, TrainBatchReturnsLoss) {
  Rng rng(2);
  Sequential model;
  model.emplace<Dense>(1, Activation::kLinear, rng, 1);
  MseLoss loss;
  Adam opt(0.01f);
  Trainer trainer(model, loss, opt, rng);

  Tensor3 x, y;
  linear_data(x, y, 8, rng);
  const float l0 = trainer.train_batch(x, y);
  EXPECT_GT(l0, 0.0f);
  float l = l0;
  for (int i = 0; i < 100; ++i) l = trainer.train_batch(x, y);
  EXPECT_LT(l, l0);
}

TEST(Trainer, EvaluateMatchesLossOnTrivialModel) {
  Rng rng(3);
  Sequential model;
  model.emplace<Dense>(1, Activation::kLinear, rng, 1);
  // Force y_hat = 0 for all inputs.
  model.set_weights({0.0f, 0.0f});
  MseLoss loss;
  Adam opt(0.01f);
  Trainer trainer(model, loss, opt, rng);

  Tensor3 x(3, 1, 1), y(3, 1, 1);
  y(0, 0, 0) = 1;
  y(1, 0, 0) = 2;
  y(2, 0, 0) = 3;
  EXPECT_NEAR(trainer.evaluate(x, y), (1 + 4 + 9) / 3.0f, 1e-5f);
}

TEST(Trainer, EarlyStoppingHaltsAndRestoresBest) {
  Rng rng(4);
  Sequential model;
  model.emplace<Dense>(4, Activation::kTanh, rng, 1);
  model.emplace<Dense>(1, Activation::kLinear, rng, 4);
  MseLoss loss;
  // Absurdly high LR so validation loss oscillates/diverges quickly.
  Adam opt(0.8f);
  Trainer trainer(model, loss, opt, rng);

  Tensor3 x, y;
  linear_data(x, y, 64, rng);
  Tensor3 xv, yv;
  linear_data(xv, yv, 32, rng);

  FitConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 16;
  cfg.early_stopping = EarlyStopping{3, 0.0f, true};
  const FitHistory hist = trainer.fit(x, y, cfg, &xv, &yv);

  EXPECT_TRUE(hist.stopped_early);
  EXPECT_LT(hist.epochs_run, 200u);
  EXPECT_EQ(hist.val_loss.size(), hist.epochs_run);

  // Restored weights should score (approximately) the best recorded
  // validation loss, not the last one.
  float best = hist.val_loss.front();
  for (float v : hist.val_loss) best = std::min(best, v);
  EXPECT_NEAR(trainer.evaluate(xv, yv), best, 1e-4f + 0.05f * best);
}

TEST(Trainer, NoShuffleIsDeterministic) {
  Tensor3 x, y;
  Rng data_rng(5);
  linear_data(x, y, 64, data_rng);

  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    Sequential model;
    model.emplace<Dense>(1, Activation::kLinear, rng, 1);
    MseLoss loss;
    Adam opt(0.01f);
    Trainer trainer(model, loss, opt, rng);
    FitConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 16;
    cfg.shuffle = false;
    trainer.fit(x, y, cfg);
    return model.get_weights();
  };

  EXPECT_EQ(run(7), run(7));
}

TEST(Trainer, RejectsMismatchedData) {
  Rng rng(6);
  Sequential model;
  model.emplace<Dense>(1, Activation::kLinear, rng, 1);
  MseLoss loss;
  Adam opt(0.01f);
  Trainer trainer(model, loss, opt, rng);
  Tensor3 x(4, 1, 1), y(5, 1, 1);
  FitConfig cfg;
  EXPECT_THROW(trainer.fit(x, y, cfg), Error);
  EXPECT_THROW(trainer.fit(Tensor3(0, 1, 1), Tensor3(0, 1, 1), cfg), Error);
}

TEST(Trainer, OnEpochEndCallbackFires) {
  Rng rng(7);
  Sequential model;
  model.emplace<Dense>(1, Activation::kLinear, rng, 1);
  MseLoss loss;
  Adam opt(0.01f);
  Trainer trainer(model, loss, opt, rng);
  Tensor3 x, y;
  linear_data(x, y, 16, rng);
  std::size_t calls = 0;
  FitConfig cfg;
  cfg.epochs = 5;
  cfg.on_epoch_end = [&](std::size_t, float, float) { ++calls; };
  trainer.fit(x, y, cfg);
  EXPECT_EQ(calls, 5u);
}

TEST(Trainer, FitWithoutInputGradMatchesFullBackwardLoop) {
  // train_batch skips the first layer's input gradient.  A loop with
  // fit()'s schedule (same permutations, batches and Adam steps) that runs
  // the full backward must end on the same weights, bit for bit: the
  // paper's LSTM-first forecaster shape, and a Dense-first model.
  const auto lstm_first = [](Rng& rng) {
    Sequential m;
    m.emplace<Lstm>(50, /*return_sequences=*/false, rng, 1);
    m.emplace<Dense>(10, Activation::kRelu, rng, 50);
    m.emplace<Dense>(1, Activation::kLinear, rng, 10);
    return m;
  };
  const auto dense_first = [](Rng& rng) {
    Sequential m;
    m.emplace<Dense>(4, Activation::kTanh, rng, 1);
    m.emplace<Lstm>(8, /*return_sequences=*/false, rng, 4);
    m.emplace<Dense>(1, Activation::kLinear, rng, 8);
    return m;
  };
  for (const auto& make : {+lstm_first, +dense_first}) {
    Rng data(21);
    Tensor3 x(45, 12, 1), y(45, 1, 1);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data.uniform(0, 1);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = data.uniform(0, 1);
    FitConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 16;

    Rng rng_fit(5);
    Sequential fitted = make(rng_fit);
    MseLoss loss;
    Adam opt_fit(1e-2f);
    Trainer trainer(fitted, loss, opt_fit, rng_fit);
    trainer.fit(x, y, cfg);

    Rng rng_loop(5);
    Sequential looped = make(rng_loop);
    Adam opt_loop(1e-2f);
    std::vector<ParamRef> params;
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
      const std::vector<std::size_t> order = rng_loop.permutation(x.batch());
      for (std::size_t start = 0; start < x.batch(); start += cfg.batch_size) {
        const std::size_t end = std::min(x.batch(), start + cfg.batch_size);
        const std::vector<std::size_t> idx(order.begin() + start,
                                           order.begin() + end);
        const Tensor3 pred = looped.forward(x.gather(idx), /*training=*/true);
        looped.zero_grads();
        const LossResult lr = loss.value_and_grad(pred, y.gather(idx));
        looped.backward(lr.grad, /*input_grad=*/true);
        if (params.empty()) params = looped.params();
        opt_loop.step(params);
      }
    }
    EXPECT_EQ(fitted.get_weights(), looped.get_weights());
  }
}

TEST(PredictBatched, MatchesSingleForward) {
  Rng rng(8);
  Sequential model;
  model.emplace<Lstm>(3, false, rng, 1);
  model.emplace<Dense>(1, Activation::kLinear, rng, 3);

  Tensor3 x(10, 4, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.05f * i;

  const Tensor3 all = model.forward(x, false);
  const Tensor3 batched = predict_batched(model, x, 3);
  EXPECT_LT(tensor::max_abs_diff(all, batched), 1e-6f);
}

}  // namespace
}  // namespace evfl::nn
