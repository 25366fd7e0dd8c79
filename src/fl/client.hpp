// Federated client: owns a private local dataset and a local model replica.
// The only artefacts that ever leave it are serialized WeightUpdate
// messages; training data is deliberately inaccessible from outside.
#pragma once

#include <functional>
#include <memory>

#include "faults/fault_injector.hpp"
#include "fl/adversary.hpp"
#include "fl/codec.hpp"
#include "fl/serialize.hpp"
#include "fl/weights.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"

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

/// How Client::participate runs one round.  The pointers are optional and
/// non-owning.
struct StepOptions {
  /// Scripted faults this client is subject to (crash, straggler delay,
  /// update corruption, stale replay).
  const faults::FaultInjector* injector = nullptr;
  /// Each local training pass is recorded as one "fl.client_train" span.
  obs::TraceWriter* trace = nullptr;
  /// Attacker clients poison their update after local training, before
  /// encoding.
  const AdversarySuite* adversary = nullptr;
  /// Rounds run in virtual time: the straggler delay is added to the train
  /// seconds, and an update later than this deadline is not sent.  A
  /// deadline <= 0 makes every update late.
  double round_deadline_ms = 120'000.0;
};

/// What one participant produced in one round.
struct StepResult {
  /// Local-training seconds, plus the straggler delay.
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

  /// Local model access (evaluation after training).
  nn::Sequential& model() { return model_; }

  /// The last upload participate() kept for a stale-replay rule (kept only
  /// while the injector's may_replay_stale holds for this client).  A
  /// driver that builds its clients afresh every round moves it out after
  /// a round and back in before the next one.
  std::vector<std::uint8_t>& previous_upload() { return previous_upload_; }

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
  /// Wall-clock seconds of the most recent train_round.
  double last_train_seconds_ = 0.0;
};

}  // namespace evfl::fl
