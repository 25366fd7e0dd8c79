#include "anomaly/segments.hpp"

#include <optional>

namespace evfl::anomaly {

std::vector<Segment> merge_segments(const std::vector<std::uint8_t>& flags,
                                    std::size_t gap_tolerance) {
  std::vector<Segment> segments;
  std::optional<Segment> current;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == 0) continue;
    if (current && i - current->end <= gap_tolerance + 1) {
      current->end = i;  // extend (possibly across a small normal gap)
    } else {
      if (current) segments.push_back(*current);
      current = Segment{i, i};
    }
  }
  if (current) segments.push_back(*current);
  return segments;
}

void interpolate_segment(std::vector<float>& values, const Segment& seg) {
  const std::size_t n = values.size();
  EVFL_REQUIRE(seg.begin <= seg.end && seg.end < n,
               "interpolate_segment: segment out of range");
  const bool has_left = seg.begin > 0;
  const bool has_right = seg.end + 1 < n;
  if (!has_left && !has_right) {
    // Whole series anomalous: nothing trustworthy to anchor on.
    return;
  }
  if (!has_left) {
    // Leading segment: hold the first trustworthy value backwards.
    const float v = values[seg.end + 1];
    for (std::size_t i = seg.begin; i <= seg.end; ++i) values[i] = v;
    return;
  }
  if (!has_right) {
    // Trailing segment: hold the last trustworthy value forwards.
    const float v = values[seg.begin - 1];
    for (std::size_t i = seg.begin; i <= seg.end; ++i) values[i] = v;
    return;
  }
  const std::size_t left = seg.begin - 1;
  const std::size_t right = seg.end + 1;
  const float v0 = values[left];
  const float v1 = values[right];
  const float span = static_cast<float>(right - left);
  for (std::size_t i = seg.begin; i <= seg.end; ++i) {
    const float t = static_cast<float>(i - left) / span;
    values[i] = v0 + t * (v1 - v0);
  }
}

void interpolate_segments(std::vector<float>& values,
                          const std::vector<Segment>& segments) {
  for (const Segment& seg : segments) interpolate_segment(values, seg);
}

}  // namespace evfl::anomaly
