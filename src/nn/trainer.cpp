#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace evfl::nn {

float Trainer::train_batch(const Tensor3& x, const Tensor3& y) {
  // Forward first: lazily-built layers create their parameter (and grad)
  // buffers on the first pass, after which they can be zeroed.
  const Tensor3 pred = model_->forward(x, /*training=*/true);
  model_->zero_grads();
  LossResult lr = loss_->value_and_grad(pred, y);
  // Nothing reads dLoss/dInput, so the first layer skips computing it.
  model_->backward(lr.grad, /*input_grad=*/false);
  if (param_refs_.empty()) param_refs_ = model_->params();
  optimizer_->step(param_refs_);
  return lr.value;
}

FitHistory Trainer::fit(const Tensor3& x, const Tensor3& y,
                        const FitConfig& cfg, const Tensor3* x_val,
                        const Tensor3* y_val,
                        const runtime::RunContext* ctx) {
  EVFL_REQUIRE(x.batch() == y.batch(), "fit: x/y batch mismatch");
  EVFL_REQUIRE(x.batch() > 0, "fit: empty dataset");
  EVFL_REQUIRE((x_val == nullptr) == (y_val == nullptr),
               "fit: validation x/y must be given together");

  const std::size_t n = x.batch();
  const std::size_t bs = std::max<std::size_t>(1, cfg.batch_size);

  FitHistory hist;
  float best_val = std::numeric_limits<float>::infinity();
  std::size_t bad_epochs = 0;
  std::vector<float> best_weights;

  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::vector<std::size_t> order;
    if (cfg.shuffle) {
      order = rng_->permutation(n);
    } else {
      order.resize(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
    }

    double epoch_loss = 0.0;
    std::size_t seen = 0;
    std::vector<std::size_t> idx;
    idx.reserve(bs);
    for (std::size_t start = 0; start < n; start += bs) {
      const std::size_t end = std::min(n, start + bs);
      idx.assign(order.begin() + start, order.begin() + end);
      const Tensor3 xb = x.gather(idx);
      const Tensor3 yb = y.gather(idx);
      const float l = train_batch(xb, yb);
      epoch_loss += static_cast<double>(l) * static_cast<double>(end - start);
      seen += end - start;
    }
    const float train_loss = static_cast<float>(epoch_loss / seen);
    hist.train_loss.push_back(train_loss);
    hist.epochs_run = epoch + 1;

    float val_loss = std::numeric_limits<float>::quiet_NaN();
    if (x_val != nullptr) {
      val_loss = evaluate(*x_val, *y_val, 256, ctx);
      hist.val_loss.push_back(val_loss);
    }
    if (cfg.on_epoch_end) cfg.on_epoch_end(epoch, train_loss, val_loss);

    if (cfg.early_stopping && x_val != nullptr) {
      const EarlyStopping& es = *cfg.early_stopping;
      if (val_loss < best_val - es.min_delta) {
        best_val = val_loss;
        bad_epochs = 0;
        if (es.restore_best_weights) best_weights = model_->get_weights();
      } else {
        ++bad_epochs;
        if (bad_epochs > es.patience) {
          hist.stopped_early = true;
          if (es.restore_best_weights && !best_weights.empty()) {
            model_->set_weights(best_weights);
          }
          break;
        }
      }
    }
  }
  return hist;
}

float Trainer::evaluate(const Tensor3& x, const Tensor3& y,
                        std::size_t batch_size,
                        const runtime::RunContext* ctx) {
  EVFL_REQUIRE(x.batch() == y.batch(), "evaluate: x/y batch mismatch");
  batch_size = std::max<std::size_t>(1, batch_size);
  const std::size_t n_batches = (x.batch() + batch_size - 1) / batch_size;

  // Per-batch weighted losses land in slots so the final reduction runs in
  // batch order whether the batches were scored serially or concurrently.
  std::vector<double> partial(n_batches, 0.0);
  auto score_batches = [&](Sequential& model, std::size_t batch_begin,
                           std::size_t batch_end) {
    for (std::size_t k = batch_begin; k < batch_end; ++k) {
      const std::size_t start = k * batch_size;
      const std::size_t end = std::min(x.batch(), start + batch_size);
      const Tensor3 xb = x.batch_slice(start, end);
      const Tensor3 yb = y.batch_slice(start, end);
      const Tensor3 pred = model.forward(xb, /*training=*/false);
      partial[k] = static_cast<double>(loss_->value(pred, yb)) *
                   static_cast<double>(end - start);
    }
  };

  if (ctx != nullptr && ctx->parallel() && n_batches > 1) {
    ctx->count("trainer.parallel_evaluations");
    ctx->parallel_for(n_batches, 1,
                      [&](std::size_t begin, std::size_t end) {
                        Sequential replica = model_->clone();
                        score_batches(replica, begin, end);
                      });
  } else {
    score_batches(*model_, 0, n_batches);
  }

  double acc = 0.0;
  for (const double p : partial) acc += p;
  return static_cast<float>(acc / static_cast<double>(x.batch()));
}

Tensor3 predict_batched(Sequential& model, const Tensor3& x,
                        std::size_t batch_size,
                        const runtime::RunContext* ctx) {
  EVFL_REQUIRE(x.batch() > 0, "predict_batched: empty input");
  batch_size = std::max<std::size_t>(1, batch_size);
  const std::size_t n_batches = (x.batch() + batch_size - 1) / batch_size;

  // First batch sizes the output (layers may reshape time/features).
  const Tensor3 head = model.forward(x.batch_slice(0, std::min(x.batch(), batch_size)),
                                     /*training=*/false);
  Tensor3 out(x.batch(), head.time(), head.features());
  head.copy_batch_into(out, 0);

  auto predict_range = [&](Sequential& m, std::size_t batch_begin,
                           std::size_t batch_end) {
    for (std::size_t k = batch_begin; k < batch_end; ++k) {
      const std::size_t start = k * batch_size;
      const std::size_t end = std::min(x.batch(), start + batch_size);
      const Tensor3 pred = m.forward(x.batch_slice(start, end), false);
      pred.copy_batch_into(out, start);
    }
  };

  if (ctx != nullptr && ctx->parallel() && n_batches > 2) {
    ctx->count("trainer.parallel_predictions");
    // Batches [1, n) run concurrently on clones, each writing a disjoint
    // slice of `out`.
    ctx->parallel_for(n_batches - 1, 1,
                      [&](std::size_t begin, std::size_t end) {
                        Sequential replica = model.clone();
                        predict_range(replica, begin + 1, end + 1);
                      });
  } else {
    predict_range(model, 1, n_batches);
  }
  return out;
}

}  // namespace evfl::nn
