// evfl::stream::ShardedPipeline — the streaming detection runtime
// (DESIGN.md §14–15), the online counterpart of the batch pipeline
// (core/pipeline).  The batch detector windows a finished series, scores
// every window, sets one threshold from the whole score vector and repairs
// with full lookahead.  A deployed detector sees samples one at a time per
// zone, adapts thresholds without rescanning history, and repairs from the
// past only.  Per zone (stream/zone_state.hpp):
//
//   - a sliding window of the last `lookback` scaled values feeds the
//     batched forecast::Engine (DESIGN.md §13).  A zone whose window holds
//     fewer than `lookback` samples — at zone start and after every churn
//     gap — is NOT scored ("not ready", a counted outcome): a zero-padded
//     window would fire spurious anomalies at every zone (re)start;
//   - thresholds are anomaly::IncrementalThreshold state, seedable from
//     calibration scores and freezable for strict batch equivalence; an
//     optional anomaly::DriftProbe re-seeds the estimator when the score
//     distribution shifts faster than winsorized adaptation tracks;
//   - online repair applies the paper's linear interpolation at the live
//     window edge (anomaly::impute_segments): with no future anchor it
//     holds the nearest trustworthy left neighbour, and the repaired value
//     — not the anomalous raw one — extends the window;
//   - events leave through a BoundedQueue with drop-oldest back-pressure
//     and shrink-on-drain (queue.hpp), so a stalled consumer costs bounded
//     memory and a counted drop.
//
// Zones are hash-partitioned across `shards` (zone % shards); each shard
// owns its zones' state outright, so shard workers run the per-zone state
// machine lock-free on disjoint state.  One shard is the single-producer
// detector; more shards spread the per-sample bookkeeping over a pool.
//
//   - ingest is multi-producer: any thread may ingest() any zone at any
//     time; the sample lands in the owning shard's BoundedQueue (the same
//     queue.hpp ring the events leave through: one mutex per shard,
//     drop-oldest past the hard bound with an exact count,
//     shrink-on-drain).  ingest() never scores: the control thread sets
//     the cadence by calling flush();
//   - flush() fans in: every shard stages its ready rows into its own
//     region of one staging tensor, the control thread moves those blocks
//     into one contiguous prefix and makes a single wide
//     forecast::Engine::score() call for ALL shards' rows — engine batch
//     efficiency scales with total zones, not per-shard zones — then
//     shards scatter their scores back through apply_forecast() in
//     parallel;
//   - events fan in to one BoundedQueue in shard order (shard 0's zones
//     first), so consumer-visible order is deterministic.
//
// Determinism contract: per-zone outputs (scores, flags, events,
// thresholds) are bit-identical regardless of shard count, flush cadence
// or producer interleaving, and — frozen — bit-identical to the batch
// detector built on batch_scores().  The argument: an engine row's result
// is independent of batch composition (pinned by the engine's own tests);
// zone state is touched only by its owning shard in the zone's sample
// order; and per-zone sample order is whatever the producers delivered —
// identical interleavings give identical results, and a single producer
// per zone (the common collector topology) makes the whole pipeline
// deterministic end to end (tests/test_sharded.cpp pins 1/2/3/4/8-shard
// equality, tests/test_stream.cpp the batch equivalence).
//
// Threading: ingest() from any number of threads, concurrently with one
// control thread calling flush(); drain() is safe from consumer threads.
// add_zone()/seed_threshold()/freeze_threshold() are setup-phase only —
// never concurrent with ingest() or flush().  After warmup, a serial
// flush() of clean data allocates nothing (bench_stream --check-allocs
// pins this at one shard and at fan-in; repairing a flagged sample may
// allocate transiently inside the shared imputation routine).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "anomaly/threshold.hpp"
#include "data/scaler.hpp"
#include "forecast/engine.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"
#include "stream/pipeline.hpp"
#include "stream/queue.hpp"
#include "stream/zone_state.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::stream {

struct ShardedConfig {
  /// Shard (worker-partition) count; zone z belongs to shard z % shards.
  std::size_t shards = 1;
  /// Per-zone semantics and sizing.  `max_zones` is the TOTAL across all
  /// shards; `flush_batch` only sizes the per-zone queue reserve.
  StreamConfig stream{};
  /// Per-shard ingest-ring hard bound and post-drain storage watermark
  /// (BoundedQueue contract: 1 <= shrink <= max).
  std::size_t ring_max = 65536;
  std::size_t ring_shrink = 4096;
};

class ShardedPipeline {
 public:
  /// The engine must outlive the pipeline and accept batches of
  /// cfg.stream.max_zones.  `registry` (optional) receives
  /// stream.queue_depth / stream.events_dropped gauges,
  /// stream.samples_total / events_total / not_ready_total / gaps_total /
  /// reseeds_total / ingest_dropped counters and a stream.flush_seconds
  /// histogram; `trace` (optional) gets one stream.flush span per flush().
  /// Both must outlive the pipeline.
  ShardedPipeline(forecast::Engine& engine, const ShardedConfig& cfg,
                  obs::Registry* registry = nullptr,
                  obs::TraceWriter* trace = nullptr);

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Register a zone with its fitted scaler (setup phase only); returns
  /// the global zone id.  Zone ids are assigned in call order, so shard
  /// ownership is reproducible: zone i lives on shard i % shards.  Zones
  /// start empty (not ready) with no threshold: until seeded/frozen or
  /// enough scores adapt one in, nothing is flagged.
  std::uint32_t add_zone(const data::MinMaxScaler& scaler);

  /// Setup phase: fold calibration scores (e.g. a clean prefix scored by
  /// batch_scores) into the zone's estimator and arm the threshold.
  void seed_threshold(std::uint32_t zone, const std::vector<float>& scores);
  /// Setup phase: pin the zone's threshold; it never adapts (or re-seeds)
  /// afterwards — the strict batch-equivalence mode.
  void freeze_threshold(std::uint32_t zone, float threshold);

  /// Enqueue one sample — safe from ANY thread, concurrently with flush().
  /// `t` is the zone's sample clock: any step other than last_t + 1 is
  /// churn (gap or restart) and resets the zone's window to not-ready when
  /// the sample is processed.  Never scores; flush() does.  Back-pressure:
  /// a full shard ring drops its oldest sample (counted in
  /// stats().ingest_dropped), never blocks the producer unboundedly.
  void ingest(std::uint32_t zone, std::uint64_t t, float value);

  /// Control thread: drain every shard ring into its zones' queues, then
  /// score all pending samples in fan-in rounds (one merged engine batch
  /// per round).  Shard stage/scatter phases run on `ctx` when it carries
  /// a pool; serial (and allocation-free after warmup) otherwise.
  /// Returns samples processed (scored + not-ready).
  std::size_t flush(const runtime::RunContext* ctx = nullptr);

  /// Move queued events into `out` (fan-in order); consumer-thread safe.
  std::size_t drain(std::vector<AnomalyEvent>& out);

  /// Aggregated counters across all shards (ingest_dropped = ring drops).
  StreamStats stats() const;

  std::size_t zones() const { return zones_.size(); }
  std::size_t shards() const { return shards_.size(); }
  /// Samples drained from rings but not yet scored (0 after flush()).
  std::size_t pending() const;
  bool ready(std::uint32_t zone) const;
  float threshold(std::uint32_t zone) const;
  const anomaly::IncrementalThreshold& estimator(std::uint32_t zone) const;
  std::size_t lookback() const { return lookback_; }
  std::uint64_t queue_dropped() const { return queue_.dropped(); }
  /// Samples lost to ring back-pressure across all shards.
  std::uint64_t ingest_dropped() const;

 private:
  /// One multi-producer sample as it crosses the ring.
  struct IngestSample {
    std::uint32_t zone = 0;
    std::uint64_t t = 0;
    float raw = 0.0f;
  };

  /// Everything one shard worker owns.  Only that worker (or the control
  /// thread between phases) touches it; the ring is the sole
  /// cross-thread member.
  struct Shard {
    Shard(std::size_t ring_max, std::size_t ring_shrink)
        : ring(ring_max, ring_shrink) {}

    BoundedQueue<IngestSample> ring;
    std::vector<std::uint32_t> zone_ids;  // owned zones, ascending
    std::vector<IngestSample> drain_buf;  // warm ring-drain scratch
    detail::RepairScratch repair;
    StreamStats stats;  // single-writer (this shard)
    std::size_t pending = 0;  // queued-in-zones, not yet processed
    // Per-round staging metadata: the shard stages its rows at
    // [stage_base, stage_base + rows) of the staging tensor; they score at
    // [row_offset, row_offset + rows) of the merged batch.
    std::size_t stage_base = 0;
    std::size_t rows = 0;
    std::size_t row_offset = 0;
    std::vector<std::uint32_t> row_zone;
    std::vector<detail::PendingSample> row_sample;
    std::vector<float> row_scaled;
    std::vector<AnomalyEvent> events;  // warm per-round event staging
  };

  void drain_ring(Shard& sh);
  void stage_shard(Shard& sh);
  void scatter_shard(Shard& sh);
  const detail::ZoneState& zone_at(std::uint32_t zone) const;
  void publish_telemetry(const StreamStats& agg);

  forecast::Engine& engine_;
  ShardedConfig cfg_;
  detail::ZonePolicy policy_;
  std::size_t lookback_;

  std::vector<detail::ZoneState> zones_;  // indexed by global zone id
  std::vector<std::unique_ptr<Shard>> shards_;

  // Fan-in scratch: shards stage into disjoint regions of staging_; the
  // control thread compacts those blocks in place into a contiguous prefix
  // and scores once.
  tensor::Tensor3 staging_;
  std::vector<float> scores_;

  BoundedQueue<AnomalyEvent> queue_;
  std::uint64_t flushes_ = 0;
  std::uint64_t seed_nonfinite_ = 0;  // nonfinite dropped during seeding
  StreamStats published_;

  obs::TraceWriter* trace_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* dropped_gauge_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* not_ready_counter_ = nullptr;
  obs::Counter* gaps_counter_ = nullptr;
  obs::Counter* reseeds_counter_ = nullptr;
  obs::Counter* ingest_dropped_counter_ = nullptr;
  obs::Histogram* flush_hist_ = nullptr;
};

}  // namespace evfl::stream
