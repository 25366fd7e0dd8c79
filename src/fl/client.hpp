// Federated client: owns a private local dataset and a local model replica.
// The only artefacts that ever leave it are serialized WeightUpdate
// messages; training data is deliberately inaccessible from outside.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "faults/fault_injector.hpp"
#include "fl/adversary.hpp"
#include "fl/codec.hpp"
#include "fl/network.hpp"
#include "fl/serialize.hpp"
#include "fl/weights.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "runtime/backoff.hpp"

namespace evfl::fl {

/// Builds an eagerly-initialized model (all layer shapes fixed) so weight
/// vectors are well-defined before the first forward pass.
using ModelFactory = std::function<nn::Sequential(tensor::Rng&)>;

struct ClientConfig {
  std::size_t epochs_per_round = 10;   // paper: EPOCHS_PER_ROUND = 10
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  /// Wire codec for this client's uploads (kDense = lossless v1 bytes).
  CodecConfig codec{};
};

/// Knobs for the threaded service loop.
struct ServeOptions {
  /// Total per-round wait budget for the broadcast.  The wait is split into
  /// retry attempts (see `backoff`) so a dropped broadcast costs a short
  /// retry, not one monolithic hang — but the attempts keep coming until
  /// this whole budget is spent.  Must cover the server's
  /// RoundPolicy::round_deadline_ms (120 s default): a round that closes at
  /// the deadline is normal operation, not a dead server.  ThreadedDriver
  /// raises it automatically when handed a larger deadline.
  double receive_timeout_ms = 150'000.0;
  runtime::BackoffPolicy backoff{};
  /// Optional scripted faults this client is subject to (crash, straggler
  /// delay, update corruption, stale replay).  Non-owning.
  const faults::FaultInjector* injector = nullptr;
  /// Optional trace sink: each local training pass is recorded as one
  /// "fl.client_train" span.  Non-owning; must outlive the serve loop.
  obs::TraceWriter* trace = nullptr;
  /// Optional adaptive adversary: attacker clients poison their update
  /// after local training, before encoding.  Non-owning.
  const AdversarySuite* adversary = nullptr;
};

/// How Client::participate runs one round.  The pointers are optional and
/// non-owning, as in ServeOptions.
struct StepOptions {
  const faults::FaultInjector* injector = nullptr;
  obs::TraceWriter* trace = nullptr;
  const AdversarySuite* adversary = nullptr;
  /// Virtual-time schedules (inline, pool, fleet): the straggler delay is
  /// added to the train seconds, and an update later than this deadline is
  /// not sent.  A deadline <= 0 makes every update late.
  double round_deadline_ms = 120'000.0;
  /// Threaded schedule: the straggler delay is a real sleep, and the
  /// server's own clock enforces the deadline on arrival.
  bool real_time = false;
};

/// What one participant produced in one round.
struct StepResult {
  /// Local-training seconds, plus the straggler delay in virtual time.
  double seconds = 0.0;
  /// The encoded update to send; nullptr after a scripted crash or past the
  /// deadline.  Points into the client and stays valid until its next
  /// round.
  const std::vector<std::uint8_t>* upload = nullptr;
  /// A stale replay of the previous round's upload, to send ahead of
  /// `upload`; empty when no replay fault fired.
  std::vector<std::uint8_t> stale;
};

class Client {
 public:
  Client(int id, tensor::Tensor3 x_train, tensor::Tensor3 y_train,
         const ModelFactory& factory, ClientConfig cfg, tensor::Rng rng);

  int id() const { return id_; }
  std::size_t sample_count() const { return x_.batch(); }

  /// Adopt the broadcast global weights, run local epochs, return the update.
  WeightUpdate train_round(const GlobalModel& global);

  /// One round as a participant, the step every driver runs: crash check,
  /// "fl.client_train" span, train_round, adversary poison, straggler
  /// delay, deadline, corruption, stale replay, encode.  Sends nothing: the
  /// caller ships `stale` then `upload`.  The upload buffer is reused
  /// across rounds, so steady-state encoding does not allocate; lossy
  /// codecs carry their error-feedback residual in the client.
  StepResult participate(const GlobalModel& global, const StepOptions& opts);

  /// Threaded-mode service loop: for each of `rounds`, wait for a
  /// GlobalModel broadcast on `net` (budget-bounded retry-with-backoff),
  /// participate in real time, and send the result to the server node.
  /// Exits when the retry budget is exhausted (server gone), a
  /// kShutdownRound broadcast arrives (server finished), or a scripted
  /// crash fault fires.
  void serve(InMemoryNetwork& net, std::size_t rounds, ServeOptions opts);

  /// Local model access (evaluation after training).
  nn::Sequential& model() { return model_; }

  /// Initial local weights (used by the server to seed the global model).
  std::vector<float> initial_weights() { return model_.get_weights(); }

  /// Wall-clock seconds of the most recent train_round (what a genuinely
  /// distributed deployment would spend on this client in parallel).
  /// Atomic: the ThreadedDriver reads it while the client thread trains.
  double last_train_seconds() const {
    return last_train_seconds_.load(std::memory_order_relaxed);
  }

 private:
  int id_;
  ClientConfig cfg_;
  tensor::Tensor3 x_;
  tensor::Tensor3 y_;
  tensor::Rng rng_;
  nn::Sequential model_;
  nn::MseLoss loss_;
  nn::Adam optimizer_;
  UpdateEncoder encoder_;
  std::vector<std::uint8_t> wire_buf_;  // upload encode scratch
  /// Last upload, kept only while a stale-replay rule may ask for it.
  std::vector<std::uint8_t> previous_upload_;
  GlobalModel global_scratch_;          // serve-loop broadcast decode buffer
  std::atomic<double> last_train_seconds_{0.0};
};

}  // namespace evfl::fl
