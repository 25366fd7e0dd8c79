// Federated Averaging (McMahan et al.) — the paper's aggregation mechanism.
//
// Accumulation is exact: every weighted leaf term is truncated into signed
// 128-bit fixed point (scale 2^64) and summed with integer addition.  Integer
// addition is associative, so any grouping of leaves into partial sums — an
// edge aggregator forwarding its shard's sum upstream — produces bit-identical
// results to summing all leaves flat.  That grouping-invariance is the
// correctness claim behind hierarchical (tree) FedAvg in this repo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/weights.hpp"

namespace evfl::fl {

/// How a round's accepted updates become the next global model.
///
/// kMean is the paper's FedAvg and keeps the exact streaming int128
/// fixed-point path (grouping-invariant — the tree==flat guarantee).  The
/// robust rules defend the aggregate against *colluding, within-norm-bound*
/// model poisoning the validator cannot see: they buffer the round's
/// decoded dense updates (bounded, see FedAvgConfig::robust_buffer_cap) and
/// reduce them order-statistically at close.  Robustness is applied at the
/// tier closest to the leaves; forwarded shard aggregates are folded by
/// weighted mean upstream ("robust-per-shard, fold upstream").
enum class AggregationRule : std::uint8_t {
  kMean = 0,             // exact weighted FedAvg (streaming, O(dim) memory)
  kTrimmedMean = 1,      // per-coordinate: drop the k extremes on each side
  kCoordinateMedian = 2, // per-coordinate median
  kNormBoundedMean = 3,  // rescale each movement to a (median-adaptive) bound
  kMultiKrum = 4,        // keep the m most mutually-consistent updates
};

/// "mean" / "trimmed_mean" / "median" / "norm_bounded" / "multi_krum".
std::string to_string(AggregationRule rule);

/// Inverse of to_string for the --agg-rule CLI knob; throws evfl::Error on
/// an unknown name.
AggregationRule parse_aggregation_rule(const std::string& name);

struct FedAvgConfig {
  /// Weight each update by its local sample count (true FedAvg).  The paper
  /// reports equal-sized clients, where this equals the unweighted mean;
  /// bench_ablation_fedavg explores the difference under imbalance.
  bool weighted_by_samples = true;

  /// How accepted updates are reduced; kMean is the historical exact path.
  AggregationRule rule = AggregationRule::kMean;
  /// kTrimmedMean: fraction trimmed from *each* side per coordinate
  /// (floor(trim_fraction * n) updates; survives f < trim_fraction * n
  /// colluding attackers).  Clamped so at least one value survives.
  double trim_fraction = 0.2;
  /// kNormBoundedMean: cap on each update's movement norm before averaging;
  /// 0 adapts the bound to the round's *median* movement norm, which — unlike
  /// the validator's static clip — an attacker cannot sit just beneath.
  double norm_bound = 0.0;
  /// kMultiKrum: assumed Byzantine count f (score over n-f-2 neighbours,
  /// select n-f).  0 derives the maximum tolerable f = (n-3)/2.
  std::size_t krum_assumed_byzantine = 0;
  /// kMultiKrum: how many lowest-score updates to average; 0 = n - f.
  std::size_t krum_select = 0;
  /// Robust rules buffer at most this many updates per round (memory bound:
  /// cap * dim floats, storage reused across rounds).  Overflow beyond the
  /// cap is folded into the exact mean accumulator and combined at close —
  /// the round degrades toward kMean rather than growing without bound.
  std::size_t robust_buffer_cap = 1024;
};

/// Magnitude cap applied to each weighted term before fixed-point conversion.
/// 2^40 — far above any sane weight*samples product; keeps the per-term fixed
/// representation within 2^104 so sums over millions of leaves cannot
/// overflow __int128.
inline constexpr double kExactTermCap = 1099511627776.0;

/// Cap on terms decoded from the wire (a shard's partial sum, which may
/// legitimately exceed the per-leaf cap by the shard size).  ±2^114 leaves
/// headroom for up to 8192 forwarded aggregates below the __int128 limit.
ExactTerm clamp_wire_term(ExactTerm t);

/// Convert one weighted leaf term to Q?.64 fixed point.  Deterministic for
/// every input: NaN maps to 0, ±inf and out-of-range values saturate at
/// ±kExactTermCap, conversion truncates toward zero.  Per-term determinism +
/// integer associativity is all grouping-invariance needs.
ExactTerm to_fixed(double term);

/// Streaming exact FedAvg accumulator.  Feed leaf updates (or forwarded
/// shard sums) in any order/grouping; `mean()` is a pure function of the
/// multiset of leaves.
class FedAccumulator {
 public:
  /// Start a fresh accumulation over `dim`-element weight vectors.
  void reset(std::size_t dim);

  /// Fold one leaf update with FedAvg weight `w` (sample count, or 1).
  void add_update(const std::vector<float>& weights, std::uint64_t w);

  /// Fold a forwarded partial sum: `terms` are a downstream accumulator's
  /// raw fixed-point sums, `added_weight` its total weight, `contributors`
  /// the number of leaves it covers.  Terms are clamped to the wire cap.
  void add_terms(const std::vector<ExactTerm>& terms,
                 std::uint64_t added_weight, std::uint64_t contributors);

  /// Write the weighted mean into `out` (resized to dim).  Requires a
  /// nonzero total weight.
  void mean(std::vector<float>& out) const;

  std::uint64_t total_weight() const { return total_weight_; }
  std::uint64_t contributors() const { return contributors_; }
  const std::vector<ExactTerm>& terms() const { return acc_; }

 private:
  std::vector<ExactTerm> acc_;
  std::uint64_t total_weight_ = 0;
  std::uint64_t contributors_ = 0;
};

/// Bounded per-round buffer of dense updates for the robust aggregation
/// rules.  Storage (cap * dim floats plus per-rule scratch) is reused across
/// rounds, so a steady-state round performs no allocation.  Order-statistic
/// rules (trimmed mean, median) treat buffered updates as one-vote-each —
/// a sample-count-weighted order statistic would let a single attacker
/// inflate its rank mass by lying about samples, which is exactly the lever
/// robustness is meant to remove.  Sample weights still decide how the
/// robust result combines with any folded aggregates (see RoundFold below).
class RobustBuffer {
 public:
  /// Start a fresh round over `dim`-element vectors, buffering at most
  /// `cap` updates.
  void reset(std::size_t dim, std::size_t cap);

  bool full() const { return count_ >= cap_; }
  std::size_t count() const { return count_; }
  std::uint64_t total_weight() const { return total_weight_; }

  /// Buffer one dense update with FedAvg weight `w`.  Requires !full().
  void add(const std::vector<float>& weights, std::uint64_t w);

  /// Reduce the buffered updates under cfg.rule (a robust rule; kMean
  /// throws) into `out` (resized to dim).  `reference` is the movement
  /// basis for kNormBoundedMean (the current global weights); nullptr means
  /// movements are taken against the zero vector.  Requires count() > 0.
  void aggregate(const FedAvgConfig& cfg, const std::vector<float>* reference,
                 std::vector<float>& out) const;

 private:
  void trimmed_mean(std::size_t trim_each_side, std::vector<float>& out) const;
  void norm_bounded_mean(const FedAvgConfig& cfg,
                         const std::vector<float>* reference,
                         std::vector<float>& out) const;
  void multi_krum(const FedAvgConfig& cfg, std::vector<float>& out) const;
  void weighted_mean_of(const std::vector<std::size_t>& rows,
                        std::vector<float>& out) const;

  std::size_t dim_ = 0;
  std::size_t cap_ = 0;
  std::size_t count_ = 0;
  std::uint64_t total_weight_ = 0;
  std::vector<float> rows_;             // count_ x dim_, row-major, reused
  std::vector<std::uint64_t> row_w_;
  // Rule scratch (mutable: aggregate() is logically const, reuses storage).
  mutable std::vector<float> col_;
  mutable std::vector<double> norms_;
  mutable std::vector<double> scores_;
  mutable std::vector<std::size_t> order_;
};

/// One round's FedAvg fold, shared by fed_avg() and Aggregator: picks each
/// update's fold weight (sample count, contributor count, or 1), routes
/// leaves to the RobustBuffer under a robust rule and everything else to the
/// exact FedAccumulator, and combines the two components by total FedAvg
/// weight ("robust-per-shard, fold upstream").  Storage is reused across
/// rounds.
class RoundFold {
 public:
  explicit RoundFold(FedAvgConfig cfg = {}) : cfg_(cfg) {}

  const FedAvgConfig& config() const { return cfg_; }

  /// Start a fresh round over `dim`-element weight vectors.
  void reset(std::size_t dim);

  /// Fold one dense update or forwarded aggregate (weights already
  /// absolute); returns its FedAvg weight.  Forwarded `agg_terms` fold
  /// exactly, weighted by the cumulative `sample_count` (weighted mode) or
  /// `agg_contributors` (unweighted mode).
  std::uint64_t add(const WeightUpdate& u);

  /// Write the round's aggregate into `out`.  `reference` is the movement
  /// basis for kNormBoundedMean.  Requires total_weight() > 0.
  void result(const std::vector<float>* reference, std::vector<float>& out);

  /// The exact component (what a kMean edge forwards as kAggSum).
  const FedAccumulator& exact() const { return acc_; }
  /// Leaves covered, across the exact accumulator and the robust buffer.
  std::uint64_t contributors() const {
    return acc_.contributors() + buf_.count();
  }
  /// Total FedAvg weight folded and buffered.
  std::uint64_t total_weight() const {
    return acc_.total_weight() + buf_.total_weight();
  }

 private:
  FedAvgConfig cfg_;
  FedAccumulator acc_;
  RobustBuffer buf_;           // leaves under a robust rule; empty under kMean
  std::vector<float> folded_;  // exact-component mean, combine scratch
};

/// Aggregate client updates into the next global weight vector.
/// All updates must agree on weight dimensionality; throws otherwise.
/// Updates carrying `agg_terms` (forwarded partial aggregates) are folded
/// exactly; their FedAvg weight is the cumulative `sample_count` (weighted
/// mode) or `agg_contributors` (unweighted mode).
///
/// Under a robust rule, leaf updates are buffered and reduced
/// order-statistically while forwarded aggregates (already robust at their
/// own tier) are folded by exact mean; the two components combine by total
/// FedAvg weight ("robust-per-shard, fold upstream").  `reference` is the
/// movement basis for kNormBoundedMean — pass the current global weights.
std::vector<float> fed_avg(const std::vector<WeightUpdate>& updates,
                           const FedAvgConfig& cfg = {},
                           const std::vector<float>* reference = nullptr);

}  // namespace evfl::fl
