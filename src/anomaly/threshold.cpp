#include "anomaly/threshold.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "data/timeseries.hpp"

namespace evfl::anomaly {

namespace {

/// Inclusive linear-interpolated percentile of an already-sorted,
/// all-finite range.
float sorted_percentile(const float* values, std::size_t n, double pct) {
  if (n == 1) return values[0];
  const double rank = pct / 100.0 * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<float>(values[lo] + frac * (values[hi] - values[lo]));
}

float mad_threshold(std::vector<float>& sorted_scratch, double k) {
  // `sorted_scratch` holds finite scores; sorted in place, then reused for
  // the deviations so the whole computation stays within one buffer.
  std::sort(sorted_scratch.begin(), sorted_scratch.end());
  const float med =
      sorted_percentile(sorted_scratch.data(), sorted_scratch.size(), 50.0);
  for (float& v : sorted_scratch) v = std::abs(v - med);
  std::sort(sorted_scratch.begin(), sorted_scratch.end());
  const float mad =
      sorted_percentile(sorted_scratch.data(), sorted_scratch.size(), 50.0);
  // 1.4826 scales MAD to the std of a normal distribution.
  return med + static_cast<float>(k) * 1.4826f * mad;
}

}  // namespace

std::string to_string(ThresholdKind kind) {
  switch (kind) {
    case ThresholdKind::kPercentile: return "percentile";
    case ThresholdKind::kMeanStd: return "mean+k*std";
    case ThresholdKind::kMad: return "mad";
  }
  return "?";
}

std::size_t drop_nonfinite(std::vector<float>& values) {
  const std::size_t before = values.size();
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](float v) { return !std::isfinite(v); }),
               values.end());
  return before - values.size();
}

float percentile(std::vector<float> values, double pct,
                 std::size_t* nonfinite_dropped) {
  EVFL_REQUIRE(pct >= 0.0 && pct <= 100.0, "percentile out of [0,100]");
  // NaN comparisons violate strict weak ordering: sorting them is UB and
  // can silently scramble the finite entries too.  Inf sorts, but poisons
  // the interpolation (Inf * 0 = NaN).  Drop both, with an accounted count.
  const std::size_t dropped = drop_nonfinite(values);
  if (nonfinite_dropped != nullptr) *nonfinite_dropped = dropped;
  EVFL_REQUIRE(!values.empty(), "percentile of empty vector (after dropping " +
                                    std::to_string(dropped) +
                                    " non-finite values)");
  std::sort(values.begin(), values.end());
  return sorted_percentile(values.data(), values.size(), pct);
}

float median(std::vector<float> values) { return percentile(std::move(values), 50.0); }

float compute_threshold(const std::vector<float>& train_scores,
                        const ThresholdRule& rule,
                        std::size_t* nonfinite_dropped) {
  EVFL_REQUIRE(!train_scores.empty(), "threshold from empty scores");
  std::vector<float> finite = train_scores;
  const std::size_t dropped = drop_nonfinite(finite);
  if (nonfinite_dropped != nullptr) *nonfinite_dropped = dropped;
  EVFL_REQUIRE(!finite.empty(),
               "threshold from scores with no finite entry (" +
                   std::to_string(dropped) + " non-finite dropped)");
  switch (rule.kind) {
    case ThresholdKind::kPercentile: {
      std::sort(finite.begin(), finite.end());
      return sorted_percentile(finite.data(), finite.size(), rule.param);
    }
    case ThresholdKind::kMeanStd: {
      const data::SeriesStats s = data::compute_stats(finite);
      return s.mean + static_cast<float>(rule.param) * s.stddev;
    }
    case ThresholdKind::kMad:
      return mad_threshold(finite, rule.param);
  }
  EVFL_ASSERT(false, "unknown threshold kind");
  return 0.0f;
}

// ---------------------------------------------------------------------------
// IncrementalThreshold

IncrementalThreshold::IncrementalThreshold(const ThresholdRule& rule)
    : rule_(rule) {
  if (rule_.kind == ThresholdKind::kPercentile) {
    EVFL_REQUIRE(rule_.param >= 0.0 && rule_.param <= 100.0,
                 "percentile out of [0,100]");
    const double p = rule_.param / 100.0;
    // Desired marker positions track {0, p/2, p, (1+p)/2, 1} quantiles.
    dn_ = {0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0};
  } else if (rule_.kind == ThresholdKind::kMad) {
    reservoir_.reserve(kReservoirCap);
    mad_scratch_.reserve(kReservoirCap);
  }
}

void IncrementalThreshold::reset() {
  count_ = 0;
  q_.fill(0.0);
  n_.fill(0.0);
  np_.fill(0.0);
  mean_ = 0.0;
  m2_ = 0.0;
  reservoir_.clear();  // capacity retained: reset never allocates
  mad_cached_ = 0.0f;
  mad_dirty_ = true;
}

bool IncrementalThreshold::observe(float score) {
  if (!std::isfinite(score)) {
    ++nonfinite_dropped_;
    return false;
  }
  ++count_;
  switch (rule_.kind) {
    case ThresholdKind::kPercentile:
      observe_p2(score);
      break;
    case ThresholdKind::kMeanStd: {
      const double delta = score - mean_;
      mean_ += delta / static_cast<double>(count_);
      m2_ += delta * (score - mean_);
      break;
    }
    case ThresholdKind::kMad: {
      mad_dirty_ = true;
      if (reservoir_.size() < kReservoirCap) {
        reservoir_.push_back(score);
      } else {
        // Algorithm R with a hash-derived draw: item i replaces a uniform
        // reservoir slot with probability cap/i — deterministic in the
        // observation sequence, independent of wall clock.
        const std::uint64_t h =
            splitmix64(static_cast<std::uint64_t>(count_) ^ 0x9E37ull);
        const std::uint64_t j = h % static_cast<std::uint64_t>(count_);
        if (j < kReservoirCap) reservoir_[static_cast<std::size_t>(j)] = score;
      }
      break;
    }
  }
  return true;
}

void IncrementalThreshold::observe_p2(float score) {
  const double x = score;
  if (count_ <= 5) {
    // Warmup: the first five observations become the initial markers.
    q_[count_ - 1] = x;
    if (count_ == 5) {
      std::sort(q_.begin(), q_.end());
      for (std::size_t i = 0; i < 5; ++i) {
        n_[i] = static_cast<double>(i);
        np_[i] = dn_[i] * 4.0;
      }
    }
    return;
  }

  // Locate the cell and bump the extreme markers.
  std::size_t k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x < q_[1]) {
    k = 0;
  } else if (x < q_[2]) {
    k = 1;
  } else if (x < q_[3]) {
    k = 2;
  } else if (x <= q_[4]) {
    k = 3;
  } else {
    q_[4] = x;
    k = 3;
  }
  for (std::size_t i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) np_[i] += dn_[i];

  // Adjust the three interior markers toward their desired positions.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) height prediction.
      const double np1 = n_[i + 1], nm1 = n_[i - 1], ni = n_[i];
      double qn =
          q_[i] + sign / (np1 - nm1) *
                      ((ni - nm1 + sign) * (q_[i + 1] - q_[i]) / (np1 - ni) +
                       (np1 - ni - sign) * (q_[i] - q_[i - 1]) / (ni - nm1));
      if (qn <= q_[i - 1] || qn >= q_[i + 1]) {
        // Parabola left the bracket: fall back to linear adjustment.
        const std::size_t nb = sign > 0.0 ? i + 1 : i - 1;
        qn = q_[i] + sign * (q_[nb] - q_[i]) / (n_[nb] - ni);
      }
      q_[i] = qn;
      n_[i] += sign;
    }
  }
}

float IncrementalThreshold::percentile_value() const {
  if (count_ < 5) {
    // Exact small-sample percentile over the observed prefix (markers hold
    // the raw values until the fifth observation sorts them).  An insertion
    // sort of the at most four values: std::sort inlined here draws a false
    // GCC 12 -Warray-bounds under ASan/UBSan on its 16-element path.
    std::array<double, 5> sorted{};
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t j = i;
      for (; j > 0 && sorted[j - 1] > q_[i]; --j) sorted[j] = sorted[j - 1];
      sorted[j] = q_[i];
    }
    if (count_ == 1) return static_cast<float>(sorted[0]);
    const double rank =
        rule_.param / 100.0 * static_cast<double>(count_ - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<float>(sorted[lo] + frac * (sorted[hi] - sorted[lo]));
  }
  return static_cast<float>(q_[2]);
}

float IncrementalThreshold::value() const {
  EVFL_REQUIRE(count_ > 0, "IncrementalThreshold::value before any score");
  switch (rule_.kind) {
    case ThresholdKind::kPercentile:
      return percentile_value();
    case ThresholdKind::kMeanStd: {
      // Population variance, matching data::compute_stats.
      const double var = m2_ / static_cast<double>(count_);
      return static_cast<float>(mean_ +
                                rule_.param * std::sqrt(std::max(0.0, var)));
    }
    case ThresholdKind::kMad: {
      if (mad_dirty_) {
        mad_scratch_.assign(reservoir_.begin(), reservoir_.end());
        mad_cached_ = mad_threshold(mad_scratch_, rule_.param);
        mad_dirty_ = false;
      }
      return mad_cached_;
    }
  }
  EVFL_ASSERT(false, "unknown threshold kind");
  return 0.0f;
}

// ---------------------------------------------------------------------------
// DriftProbe

DriftProbe::DriftProbe(double z_bound, std::size_t window)
    : z_bound_(z_bound), window_(window) {
  EVFL_REQUIRE(z_bound > 0.0, "DriftProbe needs z_bound > 0");
  EVFL_REQUIRE(window >= 8, "DriftProbe needs window >= 8");
  ring_.assign(window_, 0.0f);
}

bool DriftProbe::observe(float score) {
  if (!enabled() || !std::isfinite(score)) return false;
  if (filled_ == window_) {
    // The evicted score graduates into the baseline before the new one
    // takes its slot, keeping baseline and window disjoint.
    const double evicted = ring_[head_];
    ++base_count_;
    const double delta = evicted - base_mean_;
    base_mean_ += delta / static_cast<double>(base_count_);
    base_m2_ += delta * (evicted - base_mean_);
    ring_[head_] = score;
    head_ = head_ + 1 == window_ ? 0 : head_ + 1;
  } else {
    ring_[(head_ + filled_) % window_] = score;
    ++filled_;
  }
  // A baseline at least one window deep keeps the standard error honest;
  // earlier trips would fire off a handful of graduated scores.
  if (filled_ < window_ || base_count_ < window_) return false;

  double recent = 0.0;
  for (float v : ring_) recent += v;
  recent /= static_cast<double>(window_);
  const double base_var = base_m2_ / static_cast<double>(base_count_);
  // Standard error of a window mean under the baseline distribution; the
  // epsilon keeps a constant (zero-variance) baseline from tripping on
  // float noise.
  const double se =
      std::sqrt(std::max(base_var, 0.0) / static_cast<double>(window_)) +
      1e-12;
  return std::abs(recent - base_mean_) / se > z_bound_;
}

void DriftProbe::reseed(IncrementalThreshold& estimator) {
  EVFL_REQUIRE(filled_ == window_, "DriftProbe::reseed before a full window");
  estimator.reset();
  // Oldest-first replay keeps the estimator's state a pure function of the
  // zone's score sequence (the shard-invariance contract).
  base_count_ = 0;
  base_mean_ = 0.0;
  base_m2_ = 0.0;
  for (std::size_t i = 0; i < window_; ++i) {
    std::size_t j = head_ + i;
    if (j >= window_) j -= window_;
    const double s = ring_[j];
    estimator.observe(ring_[j]);
    // The window wholesale becomes the new baseline: post-drift scores are
    // the new normal, and the empty window gives a one-window cooldown.
    ++base_count_;
    const double delta = s - base_mean_;
    base_mean_ += delta / static_cast<double>(base_count_);
    base_m2_ += delta * (s - base_mean_);
  }
  head_ = 0;
  filled_ = 0;
  ++reseeds_;
}

}  // namespace evfl::anomaly
