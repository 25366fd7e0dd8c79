// Flat model-weight containers exchanged between federated participants.
// Only these vectors ever leave a client — raw data stays local, which is
// the paper's privacy claim made structural.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace evfl::fl {

/// Fixed-point accumulator term used by the exact FedAvg path.  Weighted
/// per-leaf products are truncated into Q?.64 fixed point; integer addition
/// is associative, which is what makes tree aggregation bit-identical to
/// flat aggregation regardless of how leaves are grouped into shards.
using ExactTerm = __int128;

/// One client's contribution to a federated round.
struct WeightUpdate {
  std::int32_t client_id = -1;
  std::uint32_t round = 0;
  std::uint64_t sample_count = 0;   // local training examples (FedAvg weight)
  std::vector<float> weights;
  float train_loss = 0.0f;          // diagnostic only; not used by FedAvg
  /// When true, `weights` holds `local - broadcast` (a wire-v2 delta codec
  /// decoded it) rather than absolute weights.  The server validates the
  /// delta directly, averages in delta space and re-materializes against
  /// the round's broadcast reference.
  bool is_delta = false;
  /// Non-empty iff this update is a forwarded partial aggregate (kAggSum
  /// wire codec): the raw fixed-point sums of an edge aggregator's shard.
  /// `weights` then holds the float mean view (for validator rules); the
  /// parent folds `agg_terms` instead, preserving exactness.
  std::vector<ExactTerm> agg_terms;
  std::uint64_t agg_contributors = 0;  // leaves behind this aggregate
};

/// Global model broadcast from server to clients.
struct GlobalModel {
  std::uint32_t round = 0;
  std::vector<float> weights;
};

/// Elementwise: dst += alpha * src  (sizes must match).
void axpy(std::vector<float>& dst, double alpha, const std::vector<float>& src);

/// L2 distance between weight vectors (convergence diagnostics).
double l2_distance(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace evfl::fl
