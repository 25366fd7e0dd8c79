// evfl::stream::ShardedPipeline — the multi-core streaming runtime
// (DESIGN.md §15).  StreamPipeline (pipeline.hpp) is single-producer: one
// thread owns ingest and flush, and one engine round batches at most one
// sample per zone.  A fleet-scale deployment has neither property — many
// collector threads deliver samples concurrently, and one core cannot keep
// up with the per-sample bookkeeping.  ShardedPipeline keeps the exact
// per-zone semantics (zone_state.hpp, shared verbatim with StreamPipeline)
// and changes only who runs them:
//
//   - zones are hash-partitioned across `shards` (zone % shards); each
//     shard owns its zones' sliding windows, incremental thresholds, drift
//     probes, and repair scratch outright, so shard workers run the whole
//     prepare/apply state machine lock-free on disjoint state;
//   - ingest is multi-producer: any thread may ingest() any zone at any
//     time; the sample lands in the owning shard's bounded MPSC ring
//     (mpsc_ring.hpp — reserve/commit fast path, drop-oldest past the hard
//     bound with an exact count, shrink-on-drain).  Producers never flush;
//     the control thread drives cadence;
//   - flush() fans in: every shard stages its ready rows into its own
//     region of a staging tensor, the control thread compacts those
//     regions into one contiguous prefix and makes a single wide
//     forecast::Engine::score() call for ALL shards' rows — engine batch
//     efficiency scales with total zones, not per-shard zones — then
//     shards scatter their scores back through apply_forecast() in
//     parallel;
//   - events fan in to one BoundedQueue in shard order (shard 0's zones
//     first), so consumer-visible order is deterministic.
//
// Determinism contract: per-zone outputs (scores, flags, events,
// thresholds) are bit-identical regardless of shard count or producer
// interleaving, and — frozen — bit-identical to StreamPipeline and
// batch_scores().  The argument: an engine row's result is independent
// of batch composition (pinned by the engine's own tests); zone state is
// touched only by its owning shard in the zone's sample order; and
// per-zone sample order is whatever the producers delivered — identical
// interleavings give identical results, and a single producer per zone
// (the common collector topology) makes the whole pipeline deterministic
// end to end (tests/test_sharded.cpp pins 1/2/4/8-shard equality).
//
// Threading: ingest() from any number of threads, concurrently with one
// control thread calling flush(); drain() is safe from consumer threads.
// add_zone()/seed_threshold()/freeze_threshold() are setup-phase only —
// never concurrent with ingest() or flush().  After warmup, a serial
// flush() of clean data allocates nothing (bench_stream --check-allocs
// pins this per shard).
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
#include "stream/mpsc_ring.hpp"
#include "stream/pipeline.hpp"
#include "stream/queue.hpp"
#include "stream/zone_state.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::stream {

struct ShardedConfig {
  /// Shard (worker-partition) count; zone z belongs to shard z % shards.
  std::size_t shards = 1;
  /// Per-zone semantics and sizing, shared with StreamPipeline.
  /// `max_zones` is the TOTAL across all shards; `flush_batch` only sizes
  /// the per-zone queue reserve (producers cannot flush — the control
  /// thread owns cadence).
  StreamConfig stream{};
  /// Per-shard ingest-ring hard bound and post-drain storage watermark
  /// (MpscRing contract: 8 <= shrink <= max).
  std::size_t ring_max = 65536;
  std::size_t ring_shrink = 4096;
};

class ShardedPipeline {
 public:
  /// The engine must outlive the pipeline and accept batches of
  /// cfg.stream.max_zones.  Optional registry/trace as in
  /// StreamPipeline (counters gain stream.ingest_dropped).
  ShardedPipeline(forecast::Engine& engine, const ShardedConfig& cfg,
                  obs::Registry* registry = nullptr,
                  obs::TraceWriter* trace = nullptr);

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Register a zone (setup phase only); returns the global zone id.
  /// Zone ids are assigned in call order, so shard ownership is
  /// reproducible: zone i lives on shard i % shards.
  std::uint32_t add_zone(const data::MinMaxScaler& scaler);

  /// Setup-phase threshold controls, identical to StreamPipeline.
  void seed_threshold(std::uint32_t zone, const std::vector<float>& scores);
  void freeze_threshold(std::uint32_t zone, float threshold);

  /// Enqueue one sample — safe from ANY thread, concurrently with flush().
  /// Back-pressure: a full shard ring drops its oldest sample (counted in
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

    MpscRing<IngestSample> ring;
    std::vector<std::uint32_t> zone_ids;  // owned zones, ascending
    std::vector<IngestSample> drain_buf;  // warm ring-drain scratch
    detail::RepairScratch repair;
    StreamStats stats;  // single-writer (this shard)
    std::size_t pending = 0;  // queued-in-zones, not yet processed
    // Per-round staging metadata: the shard's staged rows live at
    // [stage_base, stage_base + rows) of the shard staging tensor and
    // score at [row_offset, row_offset + rows) of the merged batch.
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

  // Fan-in scratch: shards stage into disjoint regions of shard_staging_;
  // the control thread compacts live rows into a contiguous prefix of
  // staging_ and scores once.
  tensor::Tensor3 shard_staging_;
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
