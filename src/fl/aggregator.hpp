// Composable aggregation core — the round logic that used to live in
// fl::Server (validate → clip → quorum → FedAvg → advance), extracted so it
// can stack into trees.
//
// Aggregator is the reusable node: it holds a weight vector, gates incoming
// updates through the round's validator rules, folds accepted updates into
// an exact fixed-point accumulator as they arrive (O(dim) memory — nothing
// buffers the raw updates), and advances the round on close.  fl::Server is
// now a thin alias for the root of a one-level tree.
//
// Under a Byzantine-robust FedAvgConfig::rule the node switches to a
// bounded buffering mode: leaf updates (decoded to dense by the codec
// layer, so robustness composes with top-k/quantized wire formats) are
// buffered up to robust_buffer_cap and reduced order-statistically at
// close; forwarded shard aggregates — already robust at their own tier —
// keep folding into the exact accumulator, and the two components combine
// by total FedAvg weight ("robust-per-shard, fold upstream").
//
// EdgeAggregator is simultaneously a server to its shard of clients and a
// client to its parent: adopt the parent's broadcast, serve the shard,
// forward ONE update upstream carrying the shard's cumulative sample count.
// Under kDense upstream the forwarded update is the shard's raw fixed-point
// sums (kAggSum), so the parent's fold is bit-identical to having seen every
// leaf directly — see fl/fedavg.hpp for the grouping-invariance argument.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fl/codec.hpp"
#include "fl/fedavg.hpp"
#include "fl/validator.hpp"
#include "fl/weights.hpp"

namespace evfl::fl {

class Aggregator {
 public:
  explicit Aggregator(std::vector<float> initial_weights, FedAvgConfig cfg = {},
                      ValidatorConfig validator_cfg = {},
                      CodecConfig codec = {});

  std::uint32_t round() const { return round_; }
  const std::vector<float>& weights() const { return weights_; }
  const CodecConfig& codec() const { return codec_; }
  AggregationRule rule() const { return fold_.config().rule; }

  /// The broadcast for the current round.
  GlobalModel broadcast() const;

  /// The broadcast for the current round as wire bytes under the configured
  /// codec (internal buffer, reused across rounds — valid until the next
  /// call).  When the codec makes the broadcast lossy, the aggregator also
  /// decodes its own message and keeps the result as the round's delta
  /// reference: clients compute deltas against what they *received*, so the
  /// server must re-materialize against the same basis — that way downlink
  /// quantization error cancels exactly instead of compounding per round.
  const std::vector<std::uint8_t>& broadcast_wire();

  /// Become a subordinate node: replace round and weights with the parent's
  /// broadcast.  Aborts any open round.  Dimension must match.
  void adopt(std::uint32_t round, const std::vector<float>& weights);

  /// Stream one arrival into the open round (lazily opened on first offer).
  /// The update passes the validator gate in arrival order; if accepted it
  /// is folded immediately and its storage can be released by the caller.
  void offer(WeightUpdate u);

  /// Seal the round: stamp the audit, advance the round counter, and — when
  /// quorum was met — replace the weights with the accumulated mean.
  /// Returns the L2 movement of the global weights (0.0 for an empty,
  /// all-rejected, or under-quorum round, which leaves weights unchanged).
  double close_round();

  /// Batch compatibility shim: offer() every update in order, then
  /// close_round().  Identical audit and weight semantics to the historical
  /// Server::finish_round.
  double finish_round(std::vector<WeightUpdate> updates);

  /// Validation outcome of the most recent closed round.
  const RoundAudit& last_audit() const { return last_audit_; }

  // Post-close views of what the round accumulated (what an EdgeAggregator
  // forwards upstream).  Valid until the next offer()/adopt().
  const FedAccumulator& accumulated() const { return fold_.exact(); }
  std::uint64_t accepted_samples() const { return samples_accum_; }
  /// Leaves covered this round, across both the exact accumulator and the
  /// robust buffer (equals accumulated().contributors() under kMean).
  std::uint64_t accepted_contributors() const { return fold_.contributors(); }
  /// Total FedAvg weight folded + buffered this round.
  std::uint64_t accepted_weight() const { return fold_.total_weight(); }
  /// Fold-weighted mean train loss of the accepted updates.
  float accepted_loss() const;

 private:
  void open_round();

  std::vector<float> weights_;
  UpdateValidator validator_;
  CodecConfig codec_;
  RoundAudit last_audit_;
  std::uint32_t round_ = 0;
  std::vector<std::uint8_t> wire_buf_;   // broadcast_wire scratch
  GlobalModel decoded_broadcast_;        // lossy-broadcast reference
  bool has_lossy_reference_ = false;

  std::optional<RoundGate> gate_;        // engaged while a round is open
  RoundFold fold_;                       // the open round's FedAvg fold
  std::uint64_t samples_accum_ = 0;
  double loss_accum_ = 0.0;              // Σ fold_weight * train_loss
  std::vector<float> next_scratch_;      // close_round mean target
};

/// One interior node of an aggregation tree: a server to its shard, a
/// client to its parent.
class EdgeAggregator {
 public:
  /// `id` is this node's client id toward the parent (must be unique among
  /// the parent's children; drivers use negative ids so leaves and edges
  /// can never collide).  `shard_codec` is the leaf→edge wire codec,
  /// `upstream_codec` the edge→parent one; kDense upstream forwards exact
  /// fixed-point sums (kAggSum), anything else forwards the shard mean
  /// through the regular update encoder (error feedback included).
  EdgeAggregator(std::int32_t id, std::vector<float> initial_weights,
                 FedAvgConfig fedavg = {}, ValidatorConfig validator_cfg = {},
                 CodecConfig shard_codec = {}, CodecConfig upstream_codec = {});

  std::int32_t id() const { return id_; }
  const Aggregator& core() const { return core_; }

  /// Adopt the parent's broadcast for this round (wire bytes, any broadcast
  /// codec).  Must be called before serving the shard.
  void begin_round(const std::vector<std::uint8_t>& parent_wire);

  /// The shard-facing broadcast (one shared buffer for the whole shard).
  const std::vector<std::uint8_t>& shard_broadcast_wire();

  /// Stream one shard arrival (decoded) into the open round.
  void offer(WeightUpdate u) { core_.offer(std::move(u)); }

  /// Close the shard round and build the single upstream update.  Returns
  /// nullptr when the shard had nothing aggregatable (no arrivals, all
  /// rejected, or under per-tier quorum) — the parent then simply sees one
  /// fewer child this round: partial aggregation, never an abort.
  const std::vector<std::uint8_t>* forward_wire();

  /// Audit of the most recent shard round.
  const RoundAudit& last_audit() const { return core_.last_audit(); }

 private:
  std::int32_t id_;
  Aggregator core_;
  CodecConfig upstream_codec_;
  UpdateEncoder upstream_encoder_;
  GlobalModel parent_model_;             // begin_round decode scratch
  std::vector<float> parent_reference_;  // delta basis toward the parent
  std::vector<std::uint8_t> up_buf_;     // forwarded-update scratch
};

}  // namespace evfl::fl
