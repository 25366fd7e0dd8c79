// Per-zone streaming state machine — the parts of online detection that
// belong to exactly one zone, which every shard of the streaming runtime
// (stream/sharded.hpp) runs on the zones it owns: window fill/churn,
// not-ready handling, edge repair, the threshold decision, winsorized
// adaptation, and drift-triggered re-seeding (DESIGN.md §14–15).
//
// The split is prepare/apply around the engine call:
//
//   prepare_sample()  — before scoring: advance the zone's sample clock
//                       (any step other than last_t + 1 is churn and
//                       resets the window), scale the raw value, and
//                       either extend a not-ready window or report the
//                       sample ready to stage;
//   apply_forecast()  — after scoring: square the forecast error, decide
//                       against the pre-observation threshold, append an
//                       event, fold the score in winsorized, let the
//                       drift probe re-seed the estimator, and extend the
//                       window with the stored (possibly repaired) value.
//
// Both functions touch only the one ZoneState plus caller-owned scratch
// and stats, so shard workers run them lock-free on disjoint zones — the
// determinism contract: a zone's outputs are a pure function of its own
// sample sequence, independent of shard count, round composition, or
// producer interleaving.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "anomaly/imputation.hpp"
#include "anomaly/threshold.hpp"
#include "data/scaler.hpp"

namespace evfl::stream {

/// One flagged sample.  `value`/`repaired` are in physical units
/// (scaler-inverted); `score`/`threshold` are in scaled-MSE space.
/// `repaired == value` when repair is disabled.
struct AnomalyEvent {
  std::uint32_t zone = 0;
  std::uint64_t t = 0;
  float value = 0.0f;
  float score = 0.0f;
  float threshold = 0.0f;
  float repaired = 0.0f;
};

/// Monotonic pipeline counters (snapshot; see stats()).
struct StreamStats {
  std::uint64_t samples_total = 0;    // ingested
  std::uint64_t scored_total = 0;     // staged through the engine
  std::uint64_t not_ready_total = 0;  // skipped: window shorter than lookback
  std::uint64_t gaps_total = 0;       // timestamp discontinuities (window resets)
  std::uint64_t events_total = 0;     // flagged anomalies pushed
  std::uint64_t events_dropped = 0;   // lost to event-queue back-pressure
  std::uint64_t repaired_total = 0;   // samples replaced at the window edge
  std::uint64_t nonfinite_inputs = 0; // NaN/Inf raw samples
  std::uint64_t nonfinite_scores = 0; // scores rejected before thresholding
  std::uint64_t reseeds_total = 0;    // drift-triggered threshold re-seeds
  std::uint64_t ingest_dropped = 0;   // lost to ingest-ring back-pressure
  std::uint64_t flushes_total = 0;
};

namespace detail {

/// One unprocessed sample in a zone's ingest-order queue.
struct PendingSample {
  std::uint64_t t = 0;
  float raw = 0.0f;
};

/// The behavior switches the zone machine needs from StreamConfig.
struct ZonePolicy {
  bool adapt_thresholds = true;
  bool repair_inputs = true;
};

/// Everything one zone owns.  Only its owning worker ever touches it.
struct ZoneState {
  data::MinMaxScaler scaler;
  std::vector<float> ring;  // lookback scaled values, ring order
  std::size_t head = 0;     // slot of the oldest value
  std::size_t filled = 0;   // not ready until filled == lookback
  std::uint64_t last_t = 0;
  bool has_last = false;
  anomaly::IncrementalThreshold estimator;
  anomaly::DriftProbe drift;  // disabled unless armed via init()
  float threshold = std::numeric_limits<float>::quiet_NaN();
  bool frozen = false;
  std::vector<PendingSample> queue;  // unprocessed samples, ingest order
  std::size_t cursor = 0;            // next unprocessed index

  /// Size every buffer up front (`queue_reserve` keeps enqueue
  /// allocation-free up to that many samples between flushes); `drift_z`
  /// <= 0 leaves the probe disabled.
  void init(const data::MinMaxScaler& fitted_scaler, std::size_t lookback,
            const anomaly::ThresholdRule& rule, double drift_z,
            std::size_t drift_window, std::size_t queue_reserve);

  void reset_window() {
    head = 0;
    filled = 0;
  }

  void push_window(float scaled, std::size_t lookback) {
    if (filled == lookback) {
      ring[head] = scaled;
      head = head + 1 == lookback ? 0 : head + 1;
    } else {
      ring[(head + filled) % lookback] = scaled;
      ++filled;
    }
  }

  /// Copy the window, oldest first, into `dst[0, lookback)` — a staging
  /// tensor row.
  void stage_window(float* dst, std::size_t lookback) const {
    for (std::size_t i = 0; i < lookback; ++i) {
      std::size_t j = head + i;
      if (j >= lookback) j -= lookback;
      dst[i] = ring[j];
    }
  }
};

/// Warm edge-repair scratch: the flags and the one-segment list are
/// constant (only the trailing point is ever under repair).  One per
/// serial worker — shard workers each own one; never share across
/// concurrent workers.
struct RepairScratch {
  std::vector<float> vals;
  std::vector<std::uint8_t> flags;
  std::vector<anomaly::Segment> segs;
  anomaly::ImputationConfig cfg;

  void init(std::size_t lookback);

  /// Paper-style linear repair at the live edge: the zone's window plus
  /// the new point, trailing point flagged, no right anchor -> hold the
  /// nearest trustworthy left neighbour.  Returns the repaired scaled
  /// value.
  float edge_repair(const ZoneState& z, std::size_t lookback);
};

/// Pre-score half of one sample: churn/gap bookkeeping, scaling, and the
/// not-ready path.  Returns true when the sample must be staged for the
/// engine (window full), leaving the scaled value in `scaled_out`;
/// returns false when the sample was fully handled here.
bool prepare_sample(ZoneState& z, const PendingSample& p,
                    std::size_t lookback, const ZonePolicy& pol,
                    RepairScratch& repair, StreamStats& stats,
                    float& scaled_out);

/// Post-score half: score = (forecast - scaled)², decide against the
/// pre-observation threshold, append any event to `events` (zone id
/// `zone`), adapt winsorized, run the drift probe, extend the window.
void apply_forecast(ZoneState& z, std::uint32_t zone,
                    const PendingSample& p, float scaled, float forecast,
                    std::size_t lookback, const ZonePolicy& pol,
                    RepairScratch& repair, StreamStats& stats,
                    std::vector<AnomalyEvent>& events);

}  // namespace detail
}  // namespace evfl::stream
