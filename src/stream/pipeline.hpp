// evfl::stream — per-zone streaming configuration and the batch reference
// the online detector is checked against (DESIGN.md §14).
//
// The runtime itself is stream::ShardedPipeline (sharded.hpp): any thread
// ingests, a control thread flushes, and a one-shard pipeline is the
// single-producer detector.  StreamConfig holds the per-zone semantics
// every shard runs (stream/zone_state.hpp); batch_scores() scores a
// finished series the way the stream does, so a frozen-threshold replay
// can be compared with the batch detector bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "anomaly/threshold.hpp"
#include "forecast/engine.hpp"
#include "runtime/run_context.hpp"

namespace evfl::stream {

struct StreamConfig {
  /// Upper bound on add_zone() calls; sizes the staging tensor (the engine
  /// must accept batches of max_zones).
  std::size_t max_zones = 16;
  /// Threshold rule every zone's incremental estimator runs.
  anomaly::ThresholdRule threshold{};
  /// Fold each finite score into the zone's estimator after the flag
  /// decision (the decision always uses the pre-observation threshold).
  /// Flagged scores fold in winsorized — clamped at twice the threshold
  /// that flagged them — so genuine drift can still raise the threshold
  /// but an anomaly burst cannot drag the null-distribution estimate up
  /// past later attacks.  Frozen zones never adapt regardless.
  bool adapt_thresholds = true;
  /// Repair flagged (and non-finite) samples at the window edge before
  /// they extend the window.  Disable for strict batch equivalence.
  bool repair_inputs = true;
  /// Drift-triggered threshold re-seeding (anomaly::DriftProbe): when the
  /// mean of the last `drift_window` folded scores sits more than
  /// `drift_z` standard errors from the pre-window baseline, the zone's
  /// estimator is rebuilt from that window instead of adapting one P²
  /// step at a time.  0 disables the probe.  Frozen zones never re-seed.
  double drift_z = 0.0;
  std::size_t drift_window = 64;
  /// Event queue hard bound (drop-oldest beyond it) and post-drain storage
  /// watermark.
  std::size_t queue_max = 4096;
  std::size_t queue_shrink = 1024;
  /// Per-zone pending-queue reserve: a zone takes this many samples between
  /// two flushes without allocating.  Flush cadence belongs to the caller.
  std::size_t flush_batch = 256;
};

/// Score every complete window of an already-scaled series the way the
/// stream does: out[i] = (forecast(window starting at i) - series[i +
/// lookback])², batched through the engine.  A frozen-threshold
/// ShardedPipeline replay of `series` flags exactly the samples whose
/// batch_scores() entry exceeds the threshold.  Returns series.size() -
/// lookback scores.
std::vector<float> batch_scores(forecast::Engine& engine,
                                const std::vector<float>& series,
                                const runtime::RunContext* ctx = nullptr);

}  // namespace evfl::stream
