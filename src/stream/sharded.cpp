#include "stream/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace evfl::stream {

ShardedPipeline::ShardedPipeline(forecast::Engine& engine,
                                 const ShardedConfig& cfg,
                                 obs::Registry* registry,
                                 obs::TraceWriter* trace)
    : engine_(engine),
      cfg_(cfg),
      policy_{cfg.stream.adapt_thresholds, cfg.stream.repair_inputs},
      lookback_(engine.model_config().sequence_length),
      queue_(cfg.stream.queue_max,
             std::min(cfg.stream.queue_shrink, cfg.stream.queue_max)),
      trace_(trace) {
  EVFL_REQUIRE(cfg_.shards >= 1 && cfg_.shards <= 256,
               "ShardedPipeline needs 1 <= shards <= 256");
  EVFL_REQUIRE(cfg_.stream.max_zones >= 1,
               "ShardedPipeline needs max_zones >= 1");
  EVFL_REQUIRE(engine_.model_config().input_features == 1,
               "ShardedPipeline ingests univariate series");
  // The fan-in merges every shard's rows into ONE engine batch, so the
  // engine must take the whole fleet at once.
  const std::size_t batch = cfg_.stream.max_zones;
  EVFL_REQUIRE(engine_.config().max_batch >= batch,
               "ShardedPipeline needs engine max_batch >= max_zones");
  staging_ = tensor::Tensor3(batch, lookback_, 1);
  scores_.assign(batch, 0.0f);
  zones_.reserve(cfg_.stream.max_zones);

  const std::size_t per_shard =
      (cfg_.stream.max_zones + cfg_.shards - 1) / cfg_.shards;
  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_.ring_max, cfg_.ring_shrink));
    Shard& sh = *shards_.back();
    sh.zone_ids.reserve(per_shard);
    sh.drain_buf.reserve(cfg_.ring_max);
    sh.repair.init(lookback_);
    sh.row_zone.assign(per_shard, 0);
    sh.row_sample.assign(per_shard, detail::PendingSample{});
    sh.row_scaled.assign(per_shard, 0.0f);
    sh.events.reserve(per_shard);
  }

  if (registry != nullptr) {
    queue_depth_gauge_ = &registry->gauge("stream.queue_depth");
    dropped_gauge_ = &registry->gauge("stream.events_dropped");
    samples_counter_ = &registry->counter("stream.samples_total");
    events_counter_ = &registry->counter("stream.events_total");
    not_ready_counter_ = &registry->counter("stream.not_ready_total");
    gaps_counter_ = &registry->counter("stream.gaps_total");
    reseeds_counter_ = &registry->counter("stream.reseeds_total");
    ingest_dropped_counter_ = &registry->counter("stream.ingest_dropped");
    flush_hist_ = &registry->histogram("stream.flush_seconds");
  }
}

std::uint32_t ShardedPipeline::add_zone(const data::MinMaxScaler& scaler) {
  EVFL_REQUIRE(zones_.size() < cfg_.stream.max_zones,
               "ShardedPipeline: max_zones exceeded");
  zones_.emplace_back();
  zones_.back().init(scaler, lookback_, cfg_.stream.threshold,
                     cfg_.stream.drift_z, cfg_.stream.drift_window,
                     cfg_.stream.flush_batch);
  const std::uint32_t id = static_cast<std::uint32_t>(zones_.size() - 1);
  shards_[id % shards_.size()]->zone_ids.push_back(id);
  return id;
}

const detail::ZoneState& ShardedPipeline::zone_at(std::uint32_t zone) const {
  EVFL_REQUIRE(zone < zones_.size(), "ShardedPipeline: unknown zone");
  return zones_[zone];
}

void ShardedPipeline::seed_threshold(std::uint32_t zone,
                                     const std::vector<float>& scores) {
  EVFL_REQUIRE(zone < zones_.size(), "ShardedPipeline: unknown zone");
  detail::ZoneState& z = zones_[zone];
  EVFL_REQUIRE(!z.frozen, "seed_threshold on a frozen zone");
  for (float s : scores) z.estimator.observe(s);
  seed_nonfinite_ += z.estimator.nonfinite_dropped();
  if (z.estimator.count() > 0) z.threshold = z.estimator.value();
}

void ShardedPipeline::freeze_threshold(std::uint32_t zone, float threshold) {
  EVFL_REQUIRE(std::isfinite(threshold),
               "freeze_threshold needs a finite threshold");
  EVFL_REQUIRE(zone < zones_.size(), "ShardedPipeline: unknown zone");
  detail::ZoneState& z = zones_[zone];
  z.threshold = threshold;
  z.frozen = true;
}

void ShardedPipeline::ingest(std::uint32_t zone, std::uint64_t t,
                             float value) {
  EVFL_REQUIRE(zone < zones_.size(), "ShardedPipeline::ingest: unknown zone");
  shards_[zone % shards_.size()]->ring.push(IngestSample{zone, t, value});
}

void ShardedPipeline::drain_ring(Shard& sh) {
  sh.drain_buf.clear();
  sh.ring.drain(sh.drain_buf);
  for (const IngestSample& m : sh.drain_buf) {
    zones_[m.zone].queue.push_back(detail::PendingSample{m.t, m.raw});
    ++sh.pending;
    ++sh.stats.samples_total;
  }
}

void ShardedPipeline::stage_shard(Shard& sh) {
  sh.rows = 0;
  float* base = staging_.data() + sh.stage_base * lookback_;
  for (std::uint32_t zid : sh.zone_ids) {
    detail::ZoneState& z = zones_[zid];
    if (z.cursor >= z.queue.size()) continue;
    const detail::PendingSample p = z.queue[z.cursor++];
    --sh.pending;
    float scaled = 0.0f;
    if (!detail::prepare_sample(z, p, lookback_, policy_, sh.repair, sh.stats,
                                scaled)) {
      continue;
    }
    z.stage_window(base + sh.rows * lookback_, lookback_);
    sh.row_zone[sh.rows] = zid;
    sh.row_sample[sh.rows] = p;
    sh.row_scaled[sh.rows] = scaled;
    ++sh.rows;
  }
}

void ShardedPipeline::scatter_shard(Shard& sh) {
  for (std::size_t i = 0; i < sh.rows; ++i) {
    detail::apply_forecast(zones_[sh.row_zone[i]], sh.row_zone[i],
                           sh.row_sample[i], sh.row_scaled[i],
                           scores_[sh.row_offset + i], lookback_, policy_,
                           sh.repair, sh.stats, sh.events);
  }
}

std::size_t ShardedPipeline::flush(const runtime::RunContext* ctx) {
  obs::TraceSpan span(trace_, "stream.flush", "stream");
  const auto start = std::chrono::steady_clock::now();

  const bool par =
      ctx != nullptr && ctx->parallel() && shards_.size() > 1;
  auto run_shards = [&](auto&& fn) {
    if (par) {
      ctx->parallel_for(shards_.size(), 1,
                        [&](std::size_t b, std::size_t e) {
                          for (std::size_t s = b; s < e; ++s) fn(*shards_[s]);
                        });
    } else {
      for (auto& sh : shards_) fn(*sh);
    }
  };

  // Phase 0: pull every shard's ring into its zones' in-order queues.
  // Shards touch disjoint zones, so this parallelizes without locks
  // (beyond each ring's own mutex).
  run_shards([&](Shard& sh) { drain_ring(sh); });

  std::size_t total_pending = 0;
  for (const auto& sh : shards_) total_pending += sh->pending;
  const std::size_t processed = total_pending;
  if (processed == 0) return 0;

  // Shard staging regions are contiguous id-order blocks; sizes are fixed
  // for the whole flush (topology is setup-phase only).
  std::size_t stage_base = 0;
  for (auto& sh : shards_) {
    sh->stage_base = stage_base;
    stage_base += sh->zone_ids.size();
  }

  while (total_pending > 0) {
    // One fan-in round: every shard advances each of its zones by at most
    // one sample (intra-zone order is load-bearing: repairing sample t
    // changes the window sample t+1 is scored against) ...
    run_shards([&](Shard& sh) { stage_shard(sh); });

    // ... the control thread compacts the shards' staged blocks in place
    // into one contiguous prefix, so the engine sees a single wide batch
    // covering every shard — batch efficiency scales with fleet size, not
    // per-shard zone count.  A block only ever moves down (row_offset <=
    // stage_base), and its target ends at or before the next shard's
    // stage_base, so no block overwrites one still to be moved; a block
    // already in place (always, with one shard) is skipped ...
    std::size_t total_rows = 0;
    for (auto& sh : shards_) {
      sh->row_offset = total_rows;
      if (sh->rows > 0 && sh->row_offset != sh->stage_base) {
        std::memmove(staging_.data() + sh->row_offset * lookback_,
                     staging_.data() + sh->stage_base * lookback_,
                     sh->rows * lookback_ * sizeof(float));
      }
      total_rows += sh->rows;
    }
    total_pending = 0;
    for (const auto& sh : shards_) total_pending += sh->pending;
    if (total_rows == 0) continue;  // whole round was not-ready samples

    // ... scores them in one engine call ...
    engine_.score_prefix(staging_, total_rows, scores_.data(), ctx);

    // ... then shards scatter their score slice back through the shared
    // per-zone state machine, lock-free on their own zones.
    run_shards([&](Shard& sh) { scatter_shard(sh); });

    // Event fan-in in shard order: deterministic consumer-visible order.
    for (auto& sh : shards_) {
      for (const AnomalyEvent& ev : sh->events) queue_.push(ev);
      sh->events.clear();
    }
  }

  for (detail::ZoneState& z : zones_) {
    z.queue.clear();  // capacity retained — steady-state allocation-free
    z.cursor = 0;
  }
  ++flushes_;

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (flush_hist_ != nullptr) flush_hist_->record(elapsed.count());
  const StreamStats agg = stats();
  publish_telemetry(agg);
  span.annotate("samples", static_cast<std::uint64_t>(processed));
  span.annotate("queue_depth", static_cast<std::uint64_t>(queue_.size()));
  return processed;
}

void ShardedPipeline::publish_telemetry(const StreamStats& agg) {
  if (samples_counter_ != nullptr) {
    samples_counter_->add(
        static_cast<double>(agg.samples_total - published_.samples_total));
    events_counter_->add(
        static_cast<double>(agg.events_total - published_.events_total));
    not_ready_counter_->add(static_cast<double>(agg.not_ready_total -
                                                published_.not_ready_total));
    gaps_counter_->add(
        static_cast<double>(agg.gaps_total - published_.gaps_total));
    reseeds_counter_->add(
        static_cast<double>(agg.reseeds_total - published_.reseeds_total));
    ingest_dropped_counter_->add(
        static_cast<double>(agg.ingest_dropped - published_.ingest_dropped));
    published_ = agg;
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    dropped_gauge_->set(static_cast<double>(queue_.dropped()));
  }
}

std::size_t ShardedPipeline::drain(std::vector<AnomalyEvent>& out) {
  const std::size_t n = queue_.drain(out);
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set(0.0);
    dropped_gauge_->set(static_cast<double>(queue_.dropped()));
  }
  return n;
}

StreamStats ShardedPipeline::stats() const {
  StreamStats agg;
  for (const auto& sh : shards_) {
    const StreamStats& s = sh->stats;
    agg.samples_total += s.samples_total;
    agg.scored_total += s.scored_total;
    agg.not_ready_total += s.not_ready_total;
    agg.gaps_total += s.gaps_total;
    agg.events_total += s.events_total;
    agg.repaired_total += s.repaired_total;
    agg.nonfinite_inputs += s.nonfinite_inputs;
    agg.nonfinite_scores += s.nonfinite_scores;
    agg.reseeds_total += s.reseeds_total;
    agg.ingest_dropped += sh->ring.dropped();
  }
  agg.nonfinite_scores += seed_nonfinite_;
  agg.events_dropped = queue_.dropped();
  agg.flushes_total = flushes_;
  return agg;
}

std::size_t ShardedPipeline::pending() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->pending;
  return total;
}

bool ShardedPipeline::ready(std::uint32_t zone) const {
  return zone_at(zone).filled == lookback_;
}

float ShardedPipeline::threshold(std::uint32_t zone) const {
  return zone_at(zone).threshold;
}

const anomaly::IncrementalThreshold& ShardedPipeline::estimator(
    std::uint32_t zone) const {
  return zone_at(zone).estimator;
}

std::uint64_t ShardedPipeline::ingest_dropped() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->ring.dropped();
  return total;
}

}  // namespace evfl::stream
