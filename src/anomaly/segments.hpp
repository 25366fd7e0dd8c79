// Anomalous-segment utilities shared by the filter and the imputation
// strategies: gap-tolerant merging of per-point flags into repair segments,
// and the paper's baseline linear-interpolation repair.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace evfl::anomaly {

/// Inclusive index range of one mitigated segment.
struct Segment {
  std::size_t begin = 0;  // first anomalous index
  std::size_t end = 0;    // last anomalous index (inclusive)
};

/// Merge anomalous flags into segments, bridging normal gaps of length
/// <= gap_tolerance between anomalous runs (the paper merges gaps <= 2).
std::vector<Segment> merge_segments(const std::vector<std::uint8_t>& flags,
                                    std::size_t gap_tolerance);

/// Linear interpolation repair of `seg` in-place over `values`: the
/// segment is replaced by the line between its non-anomalous neighbours;
/// at the series edges the boundary value is held constant.
void interpolate_segment(std::vector<float>& values, const Segment& seg);

/// interpolate_segment over each of `segments` in order.
void interpolate_segments(std::vector<float>& values,
                          const std::vector<Segment>& segments);

}  // namespace evfl::anomaly
