#include "fl/fedavg.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/error.hpp"

namespace evfl::fl {
namespace {

// ±2^114: wire-term clamp bound.
constexpr ExactTerm kWireTermCap = static_cast<ExactTerm>(1) << 114;

}  // namespace

std::string to_string(AggregationRule rule) {
  switch (rule) {
    case AggregationRule::kMean: return "mean";
    case AggregationRule::kTrimmedMean: return "trimmed_mean";
    case AggregationRule::kCoordinateMedian: return "median";
    case AggregationRule::kNormBoundedMean: return "norm_bounded";
    case AggregationRule::kMultiKrum: return "multi_krum";
  }
  return "unknown";
}

AggregationRule parse_aggregation_rule(const std::string& name) {
  if (name == "mean") return AggregationRule::kMean;
  if (name == "trimmed_mean") return AggregationRule::kTrimmedMean;
  if (name == "median") return AggregationRule::kCoordinateMedian;
  if (name == "norm_bounded") return AggregationRule::kNormBoundedMean;
  if (name == "multi_krum") return AggregationRule::kMultiKrum;
  throw Error("unknown aggregation rule: '" + name +
              "' (expected mean|trimmed_mean|median|norm_bounded|multi_krum)");
}

ExactTerm clamp_wire_term(ExactTerm t) {
  if (t > kWireTermCap) return kWireTermCap;
  if (t < -kWireTermCap) return -kWireTermCap;
  return t;
}

ExactTerm to_fixed(double term) {
  // NaN has no fixed-point value; map it to zero deterministically.  The
  // validator rejects non-finite updates before they reach aggregation,
  // so this only matters when validation is explicitly disabled.
  if (std::isnan(term)) return 0;
  if (term > kExactTermCap) term = kExactTermCap;
  if (term < -kExactTermCap) term = -kExactTermCap;
  // term·2^64 truncated toward zero, read off the double's fields: a cast
  // to __int128 is a libgcc call (__fixdfti) per term, and every edge
  // offer converts every weight.  A normal |term| is
  // (2^52 + mantissa)·2^(exponent − 1075), so its fixed-point magnitude is
  // that 53-bit integer shifted by exponent − 1011: left by at most 52
  // under the cap, right (dropping the fraction) below 2^-12, and 0 from
  // 64 places right, which covers ±0 and the subnormals.
  const auto bits = std::bit_cast<std::uint64_t>(term);
  const int shift = static_cast<int>((bits >> 52) & 0x7FF) - 1011;
  const std::uint64_t mantissa =
      (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  ExactTerm magnitude = 0;
  if (shift >= 0) {
    magnitude = static_cast<ExactTerm>(mantissa) << shift;
  } else if (shift > -64) {
    magnitude = static_cast<ExactTerm>(mantissa >> -shift);
  }
  return (bits >> 63) != 0 ? -magnitude : magnitude;
}

void FedAccumulator::reset(std::size_t dim) {
  acc_.assign(dim, 0);
  total_weight_ = 0;
  contributors_ = 0;
}

void FedAccumulator::add_update(const std::vector<float>& weights,
                                std::uint64_t w) {
  EVFL_REQUIRE(weights.size() == acc_.size(),
               "FedAccumulator: dimension mismatch");
  EVFL_REQUIRE(w > 0, "FedAccumulator: zero update weight");
  const double wd = static_cast<double>(w);
  for (std::size_t i = 0; i < acc_.size(); ++i) {
    acc_[i] += to_fixed(wd * static_cast<double>(weights[i]));
  }
  EVFL_REQUIRE(total_weight_ + w >= total_weight_,
               "FedAccumulator: total weight overflow");
  total_weight_ += w;
  contributors_ += 1;
}

void FedAccumulator::add_terms(const std::vector<ExactTerm>& terms,
                               std::uint64_t added_weight,
                               std::uint64_t contributors) {
  EVFL_REQUIRE(terms.size() == acc_.size(),
               "FedAccumulator: aggregate dimension mismatch");
  EVFL_REQUIRE(added_weight > 0, "FedAccumulator: zero aggregate weight");
  for (std::size_t i = 0; i < acc_.size(); ++i) {
    acc_[i] += clamp_wire_term(terms[i]);
  }
  EVFL_REQUIRE(total_weight_ + added_weight >= total_weight_,
               "FedAccumulator: total weight overflow");
  total_weight_ += added_weight;
  contributors_ += contributors;
}

void FedAccumulator::mean(std::vector<float>& out) const {
  EVFL_REQUIRE(total_weight_ > 0, "FedAccumulator: mean of empty accumulator");
  out.resize(acc_.size());
  const double tw = static_cast<double>(total_weight_);
  for (std::size_t i = 0; i < acc_.size(); ++i) {
    // (double)__int128 rounds to nearest on GCC/Clang — deterministic.
    const double sum = std::ldexp(static_cast<double>(acc_[i]), -64);
    out[i] = static_cast<float>(sum / tw);
  }
}

// ---- RobustBuffer -----------------------------------------------------------

void RobustBuffer::reset(std::size_t dim, std::size_t cap) {
  EVFL_REQUIRE(dim > 0, "RobustBuffer: zero dimension");
  EVFL_REQUIRE(cap > 0, "RobustBuffer: zero capacity");
  dim_ = dim;
  cap_ = cap;
  count_ = 0;
  total_weight_ = 0;
  // Rows are overwritten by add(); no need to clear — only shrink-to-fit
  // would lose the reuse guarantee, so never do that here.
}

void RobustBuffer::add(const std::vector<float>& weights, std::uint64_t w) {
  EVFL_REQUIRE(weights.size() == dim_, "RobustBuffer: dimension mismatch");
  EVFL_REQUIRE(w > 0, "RobustBuffer: zero update weight");
  EVFL_REQUIRE(!full(), "RobustBuffer: add past capacity");
  const std::size_t base = count_ * dim_;
  if (rows_.size() < base + dim_) rows_.resize(base + dim_);
  std::copy(weights.begin(), weights.end(), rows_.begin() + base);
  if (row_w_.size() < count_ + 1) row_w_.resize(count_ + 1);
  row_w_[count_] = w;
  EVFL_REQUIRE(total_weight_ + w >= total_weight_,
               "RobustBuffer: total weight overflow");
  total_weight_ += w;
  ++count_;
}

void RobustBuffer::weighted_mean_of(const std::vector<std::size_t>& rows,
                                    std::vector<float>& out) const {
  double tw = 0.0;
  for (const std::size_t r : rows) tw += static_cast<double>(row_w_[r]);
  out.assign(dim_, 0.0f);
  for (std::size_t d = 0; d < dim_; ++d) {
    double acc = 0.0;
    for (const std::size_t r : rows) {
      acc += static_cast<double>(row_w_[r]) *
             static_cast<double>(rows_[r * dim_ + d]);
    }
    out[d] = static_cast<float>(acc / tw);
  }
}

void RobustBuffer::trimmed_mean(std::size_t trim_each_side,
                                std::vector<float>& out) const {
  // Per coordinate: sort the column, drop `trim_each_side` values from each
  // end, average the survivors with equal votes.  With k >= f colluding
  // attackers pushing the same direction, all f poisoned values land in one
  // tail and are removed.
  const std::size_t n = count_;
  const std::size_t keep = n - 2 * trim_each_side;
  out.resize(dim_);
  col_.resize(n);
  for (std::size_t d = 0; d < dim_; ++d) {
    for (std::size_t r = 0; r < n; ++r) col_[r] = rows_[r * dim_ + d];
    std::sort(col_.begin(), col_.end());
    double acc = 0.0;
    for (std::size_t r = trim_each_side; r < trim_each_side + keep; ++r) {
      acc += static_cast<double>(col_[r]);
    }
    out[d] = static_cast<float>(acc / static_cast<double>(keep));
  }
}

void RobustBuffer::norm_bounded_mean(const FedAvgConfig& cfg,
                                     const std::vector<float>* reference,
                                     std::vector<float>& out) const {
  // Movement norm of each buffered update against the reference.
  const std::size_t n = count_;
  norms_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    double sq = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      double v = static_cast<double>(rows_[r * dim_ + d]);
      if (reference) v -= static_cast<double>((*reference)[d]);
      sq += v * v;
    }
    norms_[r] = std::sqrt(sq);
  }
  // Static bound if configured; otherwise adapt to the round's *median*
  // movement norm.  Unlike the validator's fixed clip — which an attacker
  // can sit just beneath — the median moves with the honest majority.
  double bound = cfg.norm_bound;
  if (!(bound > 0.0)) {
    col_.resize(n);
    for (std::size_t r = 0; r < n; ++r) col_[r] = static_cast<float>(norms_[r]);
    std::sort(col_.begin(), col_.end());
    bound = (n % 2 == 1)
                ? static_cast<double>(col_[n / 2])
                : 0.5 * (static_cast<double>(col_[n / 2 - 1]) +
                         static_cast<double>(col_[n / 2]));
  }
  out.assign(dim_, 0.0f);
  double tw = 0.0;
  for (std::size_t r = 0; r < n; ++r) tw += static_cast<double>(row_w_[r]);
  for (std::size_t d = 0; d < dim_; ++d) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double v = static_cast<double>(rows_[r * dim_ + d]);
      if (reference) v -= static_cast<double>((*reference)[d]);
      if (bound > 0.0 && norms_[r] > bound) v *= bound / norms_[r];
      acc += static_cast<double>(row_w_[r]) * v;
    }
    double mean = acc / tw;
    if (reference) mean += static_cast<double>((*reference)[d]);
    out[d] = static_cast<float>(mean);
  }
}

void RobustBuffer::multi_krum(const FedAvgConfig& cfg,
                              std::vector<float>& out) const {
  const std::size_t n = count_;
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  if (n < 4) {
    // Krum's score needs n - f - 2 >= 1 with f >= 1; below that there is
    // no meaningful consistency ranking — fall back to the plain mean.
    weighted_mean_of(order_, out);
    return;
  }
  std::size_t f = cfg.krum_assumed_byzantine;
  if (f == 0) f = (n - 3) / 2;            // max tolerable by the bound
  if (f > (n - 3) / 2) f = (n - 3) / 2;   // keep n - f - 2 >= 1
  const std::size_t neighbours = n - f - 2;

  // score_i = sum of the `neighbours` smallest squared distances to the
  // other updates; colluders are mutually close but far from the honest
  // cluster, so with f < n/2 the honest cluster wins the ranking.
  scores_.resize(n);
  norms_.resize(n);  // reused as the per-row distance scratch
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double sq = 0.0;
      for (std::size_t d = 0; d < dim_; ++d) {
        const double diff = static_cast<double>(rows_[i * dim_ + d]) -
                            static_cast<double>(rows_[j * dim_ + d]);
        sq += diff * diff;
      }
      norms_[m++] = sq;
    }
    std::nth_element(norms_.begin(), norms_.begin() + (neighbours - 1),
                     norms_.begin() + static_cast<std::ptrdiff_t>(m));
    double s = 0.0;
    for (std::size_t k = 0; k < neighbours; ++k) s += norms_[k];
    scores_[i] = s;
  }

  std::size_t select = cfg.krum_select > 0 ? cfg.krum_select : n - f;
  if (select > n) select = n;
  // Deterministic tie-break on index keeps the rule hash-reproducible.
  std::sort(order_.begin(), order_.end(),
            [this](std::size_t a, std::size_t b) {
              if (scores_[a] != scores_[b]) return scores_[a] < scores_[b];
              return a < b;
            });
  order_.resize(select);
  weighted_mean_of(order_, out);
}

void RobustBuffer::aggregate(const FedAvgConfig& cfg,
                             const std::vector<float>* reference,
                             std::vector<float>& out) const {
  EVFL_REQUIRE(count_ > 0, "RobustBuffer: aggregate over empty buffer");
  EVFL_REQUIRE(!reference || reference->size() == dim_,
               "RobustBuffer: reference dimension mismatch");
  switch (cfg.rule) {
    case AggregationRule::kMean:
      break;  // kMean folds every update exactly; nothing is buffered
    case AggregationRule::kTrimmedMean: {
      std::size_t k = static_cast<std::size_t>(
          cfg.trim_fraction * static_cast<double>(count_));
      if (2 * k >= count_) k = (count_ - 1) / 2;  // keep >= 1 survivor
      trimmed_mean(k, out);
      return;
    }
    case AggregationRule::kCoordinateMedian:
      // The median is the maximally-trimmed mean.
      trimmed_mean((count_ - 1) / 2, out);
      return;
    case AggregationRule::kNormBoundedMean:
      norm_bounded_mean(cfg, reference, out);
      return;
    case AggregationRule::kMultiKrum:
      multi_krum(cfg, out);
      return;
  }
  throw Error("RobustBuffer: no robust reduction for this rule");
}

// ---- RoundFold --------------------------------------------------------------

void RoundFold::reset(std::size_t dim) {
  acc_.reset(dim);
  if (cfg_.rule != AggregationRule::kMean) {
    buf_.reset(dim, cfg_.robust_buffer_cap);
  }
}

std::uint64_t RoundFold::add(const WeightUpdate& u) {
  if (!u.agg_terms.empty()) {
    // Forwarded partial aggregate: fold the exact shard sums.  Cumulative
    // sample count makes two-level weighting equal flat weighting.  Under a
    // robust rule the shard was already robust at its own tier, so the fold
    // stays a plain weighted mean.
    const std::uint64_t w =
        cfg_.weighted_by_samples ? u.sample_count : u.agg_contributors;
    EVFL_REQUIRE(w > 0, "FedAvg: aggregate update with zero weight");
    acc_.add_terms(u.agg_terms, w, u.agg_contributors);
    return w;
  }
  EVFL_REQUIRE(!cfg_.weighted_by_samples || u.sample_count > 0,
               "FedAvg: sample-weighted update with zero samples");
  // A clipped aggregate arrives here with its exact terms dropped but
  // agg_contributors intact — it still stands in for that many leaves
  // under unweighted averaging.
  const std::uint64_t unweighted =
      u.agg_contributors > 0 ? u.agg_contributors : 1;
  const std::uint64_t w = cfg_.weighted_by_samples ? u.sample_count : unweighted;
  const bool is_leaf = u.agg_contributors == 0;
  if (cfg_.rule != AggregationRule::kMean && is_leaf && !buf_.full()) {
    buf_.add(u.weights, w);
  } else {
    // kMean, a (clipped) forwarded aggregate, or buffer overflow past the
    // cap — fold into the exact accumulator.
    acc_.add_update(u.weights, w);
  }
  return w;
}

void RoundFold::result(const std::vector<float>* reference,
                       std::vector<float>& out) {
  if (buf_.count() == 0) {
    acc_.mean(out);
    return;
  }
  buf_.aggregate(cfg_, reference, out);
  if (acc_.total_weight() == 0) return;
  // Combine the robust leaf reduction with the folded aggregates by total
  // FedAvg weight ("robust-per-shard, fold upstream").
  acc_.mean(folded_);
  const double wr = static_cast<double>(buf_.total_weight());
  const double wm = static_cast<double>(acc_.total_weight());
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = static_cast<float>((wr * static_cast<double>(out[d]) +
                                 wm * static_cast<double>(folded_[d])) /
                                (wr + wm));
  }
}

std::vector<float> fed_avg(const std::vector<WeightUpdate>& updates,
                           const FedAvgConfig& cfg,
                           const std::vector<float>* reference) {
  EVFL_REQUIRE(!updates.empty(), "fed_avg: no updates");
  const std::size_t dim = updates.front().weights.size();
  EVFL_REQUIRE(dim > 0, "fed_avg: empty weight vectors");

  RoundFold fold(cfg);
  fold.reset(dim);
  for (const WeightUpdate& u : updates) {
    if (u.weights.size() != dim) {
      throw Error("fed_avg: weight dimension mismatch (client " +
                  std::to_string(u.client_id) + ")");
    }
    fold.add(u);
  }
  std::vector<float> out;
  fold.result(reference, out);
  return out;
}

}  // namespace evfl::fl
