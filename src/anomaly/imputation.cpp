#include "anomaly/imputation.hpp"

#include <algorithm>
#include <optional>

namespace evfl::anomaly {

std::string to_string(ImputationMethod method) {
  switch (method) {
    case ImputationMethod::kLinear: return "linear";
    case ImputationMethod::kSeasonalNaive: return "seasonal-naive";
    case ImputationMethod::kSpline: return "spline";
    case ImputationMethod::kModelReconstruction: return "model-reconstruction";
  }
  return "?";
}

namespace {

bool trustworthy(const std::vector<std::uint8_t>& flags, std::size_t i) {
  return i < flags.size() && flags[i] == 0;
}

/// Nearest trustworthy index at or left of `from`; nullopt if none.
std::optional<std::size_t> left_anchor(const std::vector<std::uint8_t>& flags,
                                       std::size_t from) {
  for (std::size_t i = from + 1; i-- > 0;) {
    if (flags[i] == 0) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> right_anchor(const std::vector<std::uint8_t>& flags,
                                        std::size_t from) {
  for (std::size_t i = from; i < flags.size(); ++i) {
    if (flags[i] == 0) return i;
  }
  return std::nullopt;
}

void impute_seasonal(std::vector<float>& values, const Segment& seg,
                     const std::vector<std::uint8_t>& flags,
                     std::size_t season) {
  for (std::size_t i = seg.begin; i <= seg.end; ++i) {
    // Walk back season by season until a trustworthy reference appears.
    std::size_t back = i;
    bool found = false;
    while (back >= season) {
      back -= season;
      if (trustworthy(flags, back)) {
        values[i] = values[back];
        found = true;
        break;
      }
    }
    if (!found) {
      // No clean seasonal reference: fall back to a linear repair anchored
      // on the nearest *trustworthy* neighbours.  Anchoring on values[i±1]
      // directly would rebuild the point from samples that are themselves
      // flagged anomalous whenever the miss happens inside a multi-point
      // attack segment.
      const auto l = i > 0 ? left_anchor(flags, i - 1) : std::nullopt;
      const auto r = right_anchor(flags, i + 1);
      if (l && r) {
        const float t = static_cast<float>(i - *l) /
                        static_cast<float>(*r - *l);
        values[i] = values[*l] + t * (values[*r] - values[*l]);
      } else if (l) {
        values[i] = values[*l];
      } else if (r) {
        values[i] = values[*r];
      }
      // No trustworthy anchor on either side: leave the sample untouched
      // rather than manufacture a value from corrupted data.
    }
  }
}

void impute_spline(std::vector<float>& values, const Segment& seg,
                   const std::vector<std::uint8_t>& flags) {
  const auto l1 = seg.begin > 0
                      ? left_anchor(flags, seg.begin - 1)
                      : std::nullopt;
  const auto r1 = right_anchor(flags, seg.end + 1);
  if (!l1 || !r1) {
    // Series edge: same hold-boundary behaviour as the linear repair.
    interpolate_segment(values, seg);
    return;
  }
  // Outer tangent anchors: the next trustworthy points beyond l1 / r1.
  const auto l2 = *l1 > 0 ? left_anchor(flags, *l1 - 1) : std::nullopt;
  const auto r2 = right_anchor(flags, *r1 + 1);

  // Non-uniform cubic Hermite: anchors sit at their true series indices, so
  // the endpoint tangents are finite differences scaled by the repaired
  // segment's actual span — uniform Catmull-Rom would bow on the unevenly
  // spaced anchors that surround a gap.
  const float x1 = static_cast<float>(*l1);
  const float x2 = static_cast<float>(*r1);
  const float p1 = values[*l1];
  const float p2 = values[*r1];
  const float h = x2 - x1;

  const float x0 = static_cast<float>(l2.value_or(*l1));
  const float x3 = static_cast<float>(r2.value_or(*r1));
  const float p0 = values[l2.value_or(*l1)];
  const float p3 = values[r2.value_or(*r1)];

  // One-sided differences when an outer anchor is missing (clamped).
  const float m1 = (x2 > x0) ? h * (p2 - p0) / (x2 - x0) : (p2 - p1);
  const float m2 = (x3 > x1) ? h * (p3 - p1) / (x3 - x1) : (p2 - p1);

  for (std::size_t i = seg.begin; i <= seg.end; ++i) {
    const float t = (static_cast<float>(i) - x1) / h;
    const float t2 = t * t;
    const float t3 = t2 * t;
    const float v = (2 * t3 - 3 * t2 + 1) * p1 + (t3 - 2 * t2 + t) * m1 +
                    (-2 * t3 + 3 * t2) * p2 + (t3 - t2) * m2;
    // Cubic Hermite can overshoot the anchor range on steep tangents; the
    // repaired quantity is a non-negative traffic volume, so clamp at zero.
    values[i] = std::max(0.0f, v);
  }
}

}  // namespace

float catmull_rom(float p0, float p1, float p2, float p3, float t) {
  const float t2 = t * t;
  const float t3 = t2 * t;
  return 0.5f * ((2.0f * p1) + (-p0 + p2) * t +
                 (2.0f * p0 - 5.0f * p1 + 4.0f * p2 - p3) * t2 +
                 (-p0 + 3.0f * p1 - 3.0f * p2 + p3) * t3);
}

void impute_segments(std::vector<float>& values,
                     const std::vector<Segment>& segments,
                     const std::vector<std::uint8_t>& flags,
                     const ImputationConfig& cfg,
                     const std::vector<float>* reconstruction) {
  EVFL_REQUIRE(flags.size() == values.size(),
               "impute_segments: flags/values length mismatch");
  if (cfg.method == ImputationMethod::kModelReconstruction) {
    EVFL_REQUIRE(reconstruction != nullptr &&
                     reconstruction->size() == values.size(),
                 "model-reconstruction imputation needs a reconstruction "
                 "aligned with the series");
  }
  for (const Segment& seg : segments) {
    EVFL_REQUIRE(seg.begin <= seg.end && seg.end < values.size(),
                 "impute_segments: segment out of range");
    switch (cfg.method) {
      case ImputationMethod::kLinear:
        interpolate_segment(values, seg);
        break;
      case ImputationMethod::kSeasonalNaive:
        EVFL_REQUIRE(cfg.season > 0, "seasonal imputation needs season > 0");
        impute_seasonal(values, seg, flags, cfg.season);
        break;
      case ImputationMethod::kSpline:
        impute_spline(values, seg, flags);
        break;
      case ImputationMethod::kModelReconstruction:
        for (std::size_t i = seg.begin; i <= seg.end; ++i) {
          values[i] = (*reconstruction)[i];
        }
        break;
    }
  }
}

}  // namespace evfl::anomaly
