// evfl::stream — continuous-ingestion anomaly detection (DESIGN.md §14).
//
// The batch pipeline (core/pipeline) detects anomalies after the fact: it
// windows a finished series, scores every window, computes one threshold
// from the whole score vector, and repairs flagged segments with full
// lookahead.  A deployed detector sees none of that — samples arrive one
// at a time per zone, thresholds have to adapt without rescanning history,
// and repair can only use the past.  StreamPipeline is that online
// counterpart, built from the same parts:
//
//   - per-zone sliding windows (ring of the last `lookback` scaled values)
//     feed the batched forecast::Engine (DESIGN.md §13); ingest() only
//     enqueues, flush() scores all pending samples in cross-zone batches,
//     one sample per zone per engine round (intra-zone order matters:
//     repairing sample t changes the window sample t+1 is scored against);
//   - a zone whose window holds fewer than `lookback` samples — at zone
//     start and after every churn gap — is NOT scored ("not ready", a
//     counted outcome).  Zero-padding the window instead would hand the
//     LSTM a fabricated history and fire spurious anomalies at every zone
//     (re)start;
//   - thresholds are anomaly::IncrementalThreshold state per zone (P²
//     quantile / Welford / reservoir-MAD behind the same ThresholdRule as
//     the batch rule), seedable from calibration scores and freezable for
//     strict batch equivalence; an optional anomaly::DriftProbe per zone
//     re-seeds the estimator from its trailing window when the score
//     distribution shifts faster than winsorized adaptation tracks
//     (DESIGN.md §15);
//   - online repair applies the paper's linear interpolation at the live
//     window edge via anomaly::impute_segments: with no future anchor the
//     repair holds the nearest trustworthy left neighbour, and the
//     repaired value — not the anomalous raw one — extends the window;
//   - anomaly events leave through a BoundedQueue with drop-oldest
//     back-pressure and shrink-on-drain (queue.hpp), so a stalled consumer
//     costs bounded memory and a counted drop, never an unbounded buffer.
//
// The per-zone state machine itself (window fill/churn, repair, decision,
// adaptation, drift) lives in stream/zone_state.hpp, shared verbatim with
// the sharded multi-core runtime (stream/sharded.hpp).
//
// Determinism: an engine row's score depends only on that row's window,
// whatever batch it shares (DESIGN.md §13), so a frozen-threshold stream
// replay of a series is bit-identical to the batch detector built on
// batch_scores() (tests/test_stream.cpp pins this).
//
// Threading: ingest()/flush()/add_zone()/stats() belong to one producer
// thread; drain() and queue_dropped() may run concurrently from consumer
// threads (the queue carries its own lock).  After warmup, ingest() and
// flush() perform no heap allocations on the clean path (bench_stream
// --check-allocs pins the steady state; repairing a flagged sample may
// allocate transiently inside the shared imputation routine).
#pragma once

#include <cstdint>
#include <vector>

#include "anomaly/threshold.hpp"
#include "data/scaler.hpp"
#include "forecast/engine.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"
#include "stream/queue.hpp"
#include "stream/zone_state.hpp"
#include "tensor/tensor3.hpp"

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
  /// step at a time.  0 disables the probe (the PR 9 behavior).  Frozen
  /// zones never re-seed.
  double drift_z = 0.0;
  std::size_t drift_window = 64;
  /// Event queue hard bound (drop-oldest beyond it) and post-drain storage
  /// watermark.
  std::size_t queue_max = 4096;
  std::size_t queue_shrink = 1024;
  /// ingest() auto-flushes once this many samples are pending.
  std::size_t flush_batch = 256;
};

class StreamPipeline {
 public:
  /// The engine must outlive the pipeline and accept batches of
  /// cfg.max_zones.  `registry` (optional) receives
  /// stream.queue_depth / stream.events_dropped gauges,
  /// stream.samples_total / events_total / not_ready_total / gaps_total /
  /// reseeds_total counters and a stream.flush_seconds histogram; `trace`
  /// (optional) gets one span per flush.  Both must outlive the pipeline.
  StreamPipeline(forecast::Engine& engine, const StreamConfig& cfg,
                 obs::Registry* registry = nullptr,
                 obs::TraceWriter* trace = nullptr);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Register a zone with its fitted scaler; returns the zone id ingest()
  /// expects.  Zones start empty (not ready) with no threshold: until
  /// seeded/frozen or enough scores adapt one in, nothing is flagged.
  std::uint32_t add_zone(const data::MinMaxScaler& scaler);

  /// Fold calibration scores (e.g. a clean prefix scored by batch_scores)
  /// into the zone's estimator and arm the threshold.
  void seed_threshold(std::uint32_t zone, const std::vector<float>& scores);

  /// Pin the zone's threshold to a fixed value; it never adapts (or
  /// re-seeds) afterwards (the strict batch-equivalence mode).
  void freeze_threshold(std::uint32_t zone, float threshold);

  /// Enqueue one sample.  `t` is the zone's sample clock: any step other
  /// than last_t + 1 is churn (gap or restart) and resets the zone's
  /// window to not-ready at processing time.  Auto-flushes once
  /// cfg.flush_batch samples are pending (using the context from
  /// set_run_context, serial by default).
  void ingest(std::uint32_t zone, std::uint64_t t, float value);

  /// Score every pending sample in cross-zone engine rounds; returns how
  /// many samples were processed (scored + not-ready).
  std::size_t flush(const runtime::RunContext* ctx = nullptr);

  /// Context auto-flushes score with (not owned; may be nullptr).
  void set_run_context(const runtime::RunContext* ctx) { run_ctx_ = ctx; }

  /// Move every queued event into `out` (arrival order); thread-safe
  /// against the producer.  Returns the number appended.
  std::size_t drain(std::vector<AnomalyEvent>& out);

  StreamStats stats() const;

  std::size_t zones() const { return zones_.size(); }
  std::size_t pending() const { return pending_total_; }
  /// Window holds a full lookback (the next in-order sample gets scored).
  bool ready(std::uint32_t zone) const;
  /// Current effective threshold; NaN while the zone is unarmed.
  float threshold(std::uint32_t zone) const;
  const anomaly::IncrementalThreshold& estimator(std::uint32_t zone) const;
  std::size_t lookback() const { return lookback_; }
  std::uint64_t queue_dropped() const { return queue_.dropped(); }

 private:
  const detail::ZoneState& zone_at(std::uint32_t zone) const;
  void publish_telemetry();

  forecast::Engine& engine_;
  StreamConfig cfg_;
  detail::ZonePolicy policy_;
  std::size_t lookback_;

  std::vector<detail::ZoneState> zones_;
  std::size_t pending_total_ = 0;
  const runtime::RunContext* run_ctx_ = nullptr;

  // Warm flush-round scratch: staging tensor, engine output, the
  // per-round record of which zone/sample each staged row belongs to,
  // and the per-round event staging the bounded queue is fed from.
  tensor::Tensor3 staging_;
  std::vector<float> scores_;
  std::vector<std::uint32_t> row_zone_;
  std::vector<detail::PendingSample> row_sample_;
  std::vector<float> row_scaled_;
  std::vector<AnomalyEvent> round_events_;

  detail::RepairScratch repair_;

  BoundedQueue<AnomalyEvent> queue_;
  StreamStats stats_;
  StreamStats published_;  // counter values already added to the registry

  obs::TraceWriter* trace_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* dropped_gauge_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* not_ready_counter_ = nullptr;
  obs::Counter* gaps_counter_ = nullptr;
  obs::Counter* reseeds_counter_ = nullptr;
  obs::Histogram* flush_hist_ = nullptr;
};

/// Score every complete window of an already-scaled series the way the
/// stream does: out[i] = (forecast(window starting at i) - series[i +
/// lookback])², batched through the engine.  A frozen-threshold
/// StreamPipeline replay of `series` flags exactly the samples whose
/// batch_scores() entry exceeds the threshold.  Returns series.size() -
/// lookback scores.
std::vector<float> batch_scores(forecast::Engine& engine,
                                const std::vector<float>& series,
                                const runtime::RunContext* ctx = nullptr);

}  // namespace evfl::stream
