// The benchmark's workloads and its metric catalogue.
//
// Every workload drives evfl from outside through public functions, on one
// thread (serial RunContext), with inputs generated from --seed.  Untraced,
// it reports the end-to-end metrics; traced (--trace 1), it first repeats
// its measured phase untraced, then runs it again under span tracing and
// reports the per-layer metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  Tracer* tracer = nullptr;
  /// Small inputs for the self-test; the numbers mean nothing.
  bool tiny = false;
};

struct MetricSpec {
  std::string name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

/// Latency percentiles are taken per window of this many consecutive
/// samples (20 beyond the p99) and combined by fast_quartile.
constexpr std::size_t kLatencyWindow = 2000;

/// Reported by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run; metrics of layers a workload declares it
/// never calls (Result::absent) read 0, any other missing metric fails.
const std::vector<MetricSpec>& per_layer_metrics();

/// Each workload fills its own metrics (end-to-end or per-layer, by
/// o.tracer) plus attempted/failed and its correctness checks.  Setup time
/// goes to "setup_s"; main adds peak RSS, the success fraction and the
/// per-layer self times.
Result run_paper_pipeline(const Options& o);
Result run_fleet_rounds(const Options& o);
Result run_stream_soak(const Options& o);

}  // namespace perfbench
