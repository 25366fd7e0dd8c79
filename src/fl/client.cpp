#include "fl/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "metrics/timer.hpp"

namespace evfl::fl {

namespace {

/// Budget-bounded retry-with-backoff receive: waits ramp geometrically to
/// the per-attempt ceiling and then keep retrying at that ceiling until the
/// full `opts.receive_timeout_ms` budget is spent.  The budget — not the
/// backoff ramp — decides when the client gives up, so a server that
/// legitimately holds a round open until its deadline is waited out rather
/// than abandoned.
std::optional<Message> receive_with_backoff(InMemoryNetwork& net, int node,
                                            const ServeOptions& opts) {
  double budget_ms = opts.receive_timeout_ms;
  for (std::size_t attempt = 0; budget_ms > 0.0; ++attempt) {
    const double wait =
        std::min(runtime::backoff_wait_ms(opts.backoff, attempt), budget_ms);
    if (wait <= 0.0) break;
    if (std::optional<Message> msg = net.receive(node, wait)) return msg;
    budget_ms -= wait;
  }
  return std::nullopt;
}

}  // namespace

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
  last_train_seconds_.store(timer.seconds(), std::memory_order_relaxed);

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

  out.seconds = last_train_seconds();
  if (faults != nullptr) {
    const double delay_ms = faults->straggler_delay_ms(id_, global.round);
    if (!opts.real_time) {
      out.seconds += delay_ms / 1e3;
    } else if (delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
  }
  if (!opts.real_time && (opts.round_deadline_ms <= 0.0 ||
                          out.seconds * 1e3 > opts.round_deadline_ms)) {
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

void Client::serve(InMemoryNetwork& net, std::size_t rounds,
                   ServeOptions opts) {
  const StepOptions step{opts.injector, opts.trace, opts.adversary, 0.0,
                         /*real_time=*/true};
  for (std::size_t r = 0; r < rounds; ++r) {
    std::optional<Message> msg = receive_with_backoff(net, id_, opts);
    if (!msg) return;  // retry budget exhausted: server went away
    deserialize_global_into(msg->payload(), global_scratch_);
    if (global_scratch_.round == kShutdownRound) return;  // server finished

    StepResult out = participate(global_scratch_, step);
    if (out.upload == nullptr) return;  // in real time, only a crash
    if (!out.stale.empty()) {
      net.send(Message{id_, kServerNode, std::move(out.stale)});
    }
    net.send(Message{id_, kServerNode, *out.upload});
  }
}

}  // namespace evfl::fl
