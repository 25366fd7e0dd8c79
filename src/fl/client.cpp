#include "fl/client.hpp"

#include "metrics/timer.hpp"

namespace evfl::fl {

Client::Client(int id, tensor::Tensor3 x_train, tensor::Tensor3 y_train,
               const ModelFactory& factory, ClientConfig cfg, tensor::Rng rng)
    : id_(id),
      cfg_(cfg),
      x_(std::move(x_train)),
      y_(std::move(y_train)),
      rng_(std::move(rng)),
      model_(factory(rng_)),
      optimizer_(cfg.learning_rate),
      encoder_(cfg.codec) {
  EVFL_REQUIRE(x_.batch() == y_.batch(), "client data x/y mismatch");
  EVFL_REQUIRE(x_.batch() > 0, "client has no training data");
  EVFL_REQUIRE(model_.weight_count() > 0,
               "model factory must build layers eagerly");
}

WeightUpdate Client::train_round(const GlobalModel& global) {
  const metrics::WallTimer timer;
  model_.set_weights(global.weights);

  nn::Trainer trainer(model_, loss_, optimizer_, rng_);
  nn::FitConfig fit;
  fit.epochs = cfg_.epochs_per_round;
  fit.batch_size = cfg_.batch_size;
  const nn::FitHistory hist = trainer.fit(x_, y_, fit);
  last_train_seconds_ = timer.seconds();

  WeightUpdate update;
  update.client_id = id_;
  update.round = global.round;
  update.sample_count = sample_count();
  update.weights = model_.get_weights();
  update.train_loss = hist.train_loss.empty() ? 0.0f : hist.train_loss.back();
  return update;
}

StepResult Client::participate(const GlobalModel& global,
                               const StepOptions& opts) {
  StepResult out;
  const faults::FaultInjector* faults = opts.injector;
  // Crash-before-update: the client received the broadcast but dies before
  // contributing — the round must time it out, not wait for it.
  if (faults != nullptr && faults->should_crash(id_, global.round)) {
    return out;
  }

  obs::TraceSpan train_span(opts.trace, "fl.client_train", "fl");
  train_span.annotate("client", static_cast<std::uint64_t>(id_));
  train_span.annotate("round", static_cast<std::uint64_t>(global.round));
  WeightUpdate update = train_round(global);
  train_span.end();

  // An attacker client poisons its own update before anything else touches
  // it — upstream of scripted corruption and of encoding, exactly where a
  // compromised client controls the pipeline.
  if (opts.adversary != nullptr) {
    opts.adversary->poison_update(update, global.weights);
  }

  out.seconds = last_train_seconds_;
  if (faults != nullptr) {
    out.seconds += faults->straggler_delay_ms(id_, global.round) / 1e3;
  }
  if (opts.round_deadline_ms <= 0.0 ||
      out.seconds * 1e3 > opts.round_deadline_ms) {
    return out;  // missed the round deadline: the update never ships
  }

  if (faults != nullptr) {
    faults->corrupt_update(update);
    // Stale replay: the previous round's bytes go out ahead of the fresh
    // update — the server's validator must reject the old round.
    if (!previous_upload_.empty() &&
        faults->should_replay_stale(id_, global.round)) {
      out.stale = previous_upload_;
    }
  }

  // Encode against the broadcast as *this client decoded it* — under a
  // lossy downlink that is the server's delta reference too.
  encoder_.encode(update, global.weights, wire_buf_);
  out.upload = &wire_buf_;
  if (faults != nullptr && faults->may_replay_stale(id_)) {
    previous_upload_ = wire_buf_;
  }
  return out;
}

}  // namespace evfl::fl
