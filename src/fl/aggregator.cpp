#include "fl/aggregator.hpp"

#include "common/error.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

Aggregator::Aggregator(std::vector<float> initial_weights, FedAvgConfig cfg,
                       ValidatorConfig validator_cfg, CodecConfig codec)
    : weights_(std::move(initial_weights)),
      validator_(validator_cfg),
      codec_(codec),
      fold_(cfg) {
  EVFL_REQUIRE(!weights_.empty(), "aggregator needs non-empty initial weights");
}

GlobalModel Aggregator::broadcast() const {
  return GlobalModel{round_, weights_};
}

const std::vector<std::uint8_t>& Aggregator::broadcast_wire() {
  encode_global(round_, weights_, codec_, wire_buf_);
  has_lossy_reference_ = broadcast_is_lossy(codec_);
  if (has_lossy_reference_) {
    deserialize_global_into(wire_buf_, decoded_broadcast_);
  }
  return wire_buf_;
}

void Aggregator::adopt(std::uint32_t round, const std::vector<float>& weights) {
  EVFL_REQUIRE(weights.size() == weights_.size(),
               "adopt: weight dimension mismatch");
  gate_.reset();  // abort any open round — a new broadcast supersedes it
  weights_ = weights;
  round_ = round;
  has_lossy_reference_ = false;
}

void Aggregator::open_round() {
  gate_.emplace(validator_.config(), round_, weights_);
  fold_.reset(weights_.size());
  samples_accum_ = 0;
  loss_accum_ = 0.0;
}

void Aggregator::offer(WeightUpdate u) {
  if (!gate_) open_round();
  if (!gate_->admit(u)) return;

  // The delta basis is what the clients decoded, not what the server holds:
  // under a lossy broadcast those differ, and re-materializing against the
  // decoded copy makes the downlink quantization error cancel exactly.
  const std::vector<float>& reference =
      has_lossy_reference_ ? decoded_broadcast_.weights : weights_;
  if (u.is_delta) {
    EVFL_ASSERT(u.weights.size() == reference.size(),
                "validated delta has wrong dimension");
    for (std::size_t i = 0; i < u.weights.size(); ++i) {
      u.weights[i] += reference[i];
    }
    u.is_delta = false;
  }

  const std::uint64_t fold_weight = fold_.add(u);
  samples_accum_ += u.sample_count;
  loss_accum_ +=
      static_cast<double>(fold_weight) * static_cast<double>(u.train_loss);
}

double Aggregator::close_round() {
  if (!gate_) open_round();  // empty round: audit over zero arrivals
  last_audit_ = gate_->finish();
  gate_.reset();
  ++round_;
  has_lossy_reference_ = false;
  if (last_audit_.accepted == 0 || !last_audit_.quorum_met) return 0.0;

  // The movement basis for kNormBoundedMean is the weights the round
  // opened with — still in weights_ until the swap below.
  fold_.result(&weights_, next_scratch_);
  const double delta = l2_distance(weights_, next_scratch_);
  std::swap(weights_, next_scratch_);
  return delta;
}

double Aggregator::finish_round(std::vector<WeightUpdate> updates) {
  if (!gate_) open_round();
  for (WeightUpdate& u : updates) offer(std::move(u));
  return close_round();
}

float Aggregator::accepted_loss() const {
  const std::uint64_t tw = accepted_weight();
  if (tw == 0) return 0.0f;
  return static_cast<float>(loss_accum_ / static_cast<double>(tw));
}

// ---- EdgeAggregator ---------------------------------------------------------

EdgeAggregator::EdgeAggregator(std::int32_t id,
                               std::vector<float> initial_weights,
                               FedAvgConfig fedavg,
                               ValidatorConfig validator_cfg,
                               CodecConfig shard_codec,
                               CodecConfig upstream_codec)
    : id_(id),
      core_(std::move(initial_weights), fedavg, validator_cfg, shard_codec),
      upstream_codec_(upstream_codec),
      upstream_encoder_(upstream_codec) {}

void EdgeAggregator::begin_round(const std::vector<std::uint8_t>& parent_wire) {
  deserialize_global_into(parent_wire, parent_model_);
  core_.adopt(parent_model_.round, parent_model_.weights);
  // The delta basis toward the parent is what *we* decoded — under a lossy
  // parent broadcast that is exactly the reference the parent will
  // re-materialize against.
  parent_reference_ = parent_model_.weights;
}

const std::vector<std::uint8_t>& EdgeAggregator::shard_broadcast_wire() {
  return core_.broadcast_wire();
}

const std::vector<std::uint8_t>* EdgeAggregator::forward_wire() {
  const std::uint32_t closed_round = core_.round();
  core_.close_round();
  const RoundAudit& audit = core_.last_audit();
  // Per-tier quorum: a shard that collected nothing aggregatable forwards
  // nothing — the parent just sees one fewer child (partial aggregation).
  if (audit.accepted == 0 || !audit.quorum_met) return nullptr;

  if (upstream_codec_.kind == CodecKind::kDense &&
      core_.rule() == AggregationRule::kMean) {
    // Exact path: ship the raw fixed-point sums.  The parent's fold is then
    // bit-identical to having aggregated this shard's leaves directly.  A
    // robust rule has no exact sum to ship — its reduction is an order
    // statistic, not a linear fold — so it takes the mean-update path below.
    const FedAccumulator& acc = core_.accumulated();
    serialize_aggregate_into(closed_round, id_, core_.accepted_samples(),
                             core_.accepted_loss(), acc.contributors(),
                             acc.total_weight(), acc.terms(), up_buf_);
    return &up_buf_;
  }

  // Lossy upstream — or a robust shard reduction: forward the shard result
  // as a regular update (the edge is just another client from the parent's
  // perspective, error-feedback residual and all).  agg_contributors > 0
  // marks it as an aggregate so a robust parent folds it instead of
  // re-buffering it against the leaf order statistics.
  WeightUpdate up;
  up.client_id = id_;
  up.round = closed_round;
  up.sample_count = core_.accepted_samples();
  up.train_loss = core_.accepted_loss();
  up.weights = core_.weights();  // close_round left the shard result here
  up.agg_contributors = core_.accepted_contributors();
  upstream_encoder_.encode(up, parent_reference_, up_buf_);
  return &up_buf_;
}

}  // namespace evfl::fl
