#include "stream/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"

namespace evfl::stream {

StreamPipeline::StreamPipeline(forecast::Engine& engine,
                               const StreamConfig& cfg, obs::Registry* registry,
                               obs::TraceWriter* trace)
    : engine_(engine),
      cfg_(cfg),
      policy_{cfg.adapt_thresholds, cfg.repair_inputs},
      lookback_(engine.model_config().sequence_length),
      queue_(cfg.queue_max, std::min(cfg.queue_shrink, cfg.queue_max)),
      trace_(trace) {
  EVFL_REQUIRE(cfg_.max_zones >= 1, "StreamPipeline needs max_zones >= 1");
  EVFL_REQUIRE(cfg_.flush_batch >= 1, "StreamPipeline needs flush_batch >= 1");
  EVFL_REQUIRE(engine_.model_config().input_features == 1,
               "StreamPipeline ingests univariate series");
  // Rounds stage at most one sample per zone.
  const std::size_t batch = cfg_.max_zones;
  EVFL_REQUIRE(engine_.config().max_batch >= batch,
               "StreamPipeline needs engine max_batch >= max_zones");
  staging_ = tensor::Tensor3(batch, lookback_, 1);
  scores_.assign(batch, 0.0f);
  row_zone_.assign(batch, 0);
  row_sample_.assign(batch, detail::PendingSample{});
  row_scaled_.assign(batch, 0.0f);
  round_events_.reserve(batch);
  repair_.init(lookback_);
  zones_.reserve(cfg_.max_zones);
  if (registry != nullptr) {
    queue_depth_gauge_ = &registry->gauge("stream.queue_depth");
    dropped_gauge_ = &registry->gauge("stream.events_dropped");
    samples_counter_ = &registry->counter("stream.samples_total");
    events_counter_ = &registry->counter("stream.events_total");
    not_ready_counter_ = &registry->counter("stream.not_ready_total");
    gaps_counter_ = &registry->counter("stream.gaps_total");
    reseeds_counter_ = &registry->counter("stream.reseeds_total");
    flush_hist_ = &registry->histogram("stream.flush_seconds");
  }
}

std::uint32_t StreamPipeline::add_zone(const data::MinMaxScaler& scaler) {
  EVFL_REQUIRE(zones_.size() < cfg_.max_zones,
               "StreamPipeline: max_zones exceeded");
  zones_.emplace_back();
  // Worst case every pending sample belongs to one zone; reserving the full
  // auto-flush batch keeps ingest() allocation-free after this point.
  zones_.back().init(scaler, lookback_, cfg_.threshold, cfg_.drift_z,
                     cfg_.drift_window, cfg_.flush_batch);
  return static_cast<std::uint32_t>(zones_.size() - 1);
}

const detail::ZoneState& StreamPipeline::zone_at(std::uint32_t zone) const {
  EVFL_REQUIRE(zone < zones_.size(), "StreamPipeline: unknown zone");
  return zones_[zone];
}

void StreamPipeline::seed_threshold(std::uint32_t zone,
                                    const std::vector<float>& scores) {
  EVFL_REQUIRE(zone < zones_.size(), "StreamPipeline: unknown zone");
  detail::ZoneState& z = zones_[zone];
  EVFL_REQUIRE(!z.frozen, "seed_threshold on a frozen zone");
  for (float s : scores) z.estimator.observe(s);
  stats_.nonfinite_scores += z.estimator.nonfinite_dropped();
  if (z.estimator.count() > 0) z.threshold = z.estimator.value();
}

void StreamPipeline::freeze_threshold(std::uint32_t zone, float threshold) {
  EVFL_REQUIRE(std::isfinite(threshold),
               "freeze_threshold needs a finite threshold");
  EVFL_REQUIRE(zone < zones_.size(), "StreamPipeline: unknown zone");
  detail::ZoneState& z = zones_[zone];
  z.threshold = threshold;
  z.frozen = true;
}

void StreamPipeline::ingest(std::uint32_t zone, std::uint64_t t, float value) {
  EVFL_REQUIRE(zone < zones_.size(), "StreamPipeline::ingest: unknown zone");
  zones_[zone].queue.push_back(detail::PendingSample{t, value});
  ++pending_total_;
  ++stats_.samples_total;
  if (pending_total_ >= cfg_.flush_batch) flush(run_ctx_);
}

std::size_t StreamPipeline::flush(const runtime::RunContext* ctx) {
  if (pending_total_ == 0) return 0;
  obs::TraceSpan span(trace_, "stream.flush", "stream");
  const auto start = std::chrono::steady_clock::now();
  std::size_t processed = 0;

  while (pending_total_ > 0) {
    // One round: the oldest unprocessed sample of every zone that has one.
    // Intra-zone order is preserved round to round (repairing sample t
    // changes the window sample t+1 is scored against); cross-zone
    // batching is where the engine win comes from.
    std::size_t rows = 0;
    for (std::uint32_t zi = 0; zi < zones_.size(); ++zi) {
      detail::ZoneState& z = zones_[zi];
      if (z.cursor >= z.queue.size()) continue;
      const detail::PendingSample p = z.queue[z.cursor++];
      --pending_total_;
      ++processed;

      float scaled = 0.0f;
      if (!detail::prepare_sample(z, p, lookback_, policy_, repair_, stats_,
                                  scaled)) {
        continue;
      }
      z.stage_window(staging_.data() + rows * lookback_, lookback_);
      row_zone_[rows] = zi;
      row_sample_[rows] = p;
      row_scaled_[rows] = scaled;
      ++rows;
    }
    if (rows == 0) continue;

    engine_.score_prefix(staging_, rows, scores_.data(), ctx);

    round_events_.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      detail::apply_forecast(zones_[row_zone_[r]], row_zone_[r],
                             row_sample_[r], row_scaled_[r], scores_[r],
                             lookback_, policy_, repair_, stats_,
                             round_events_);
    }
    for (const AnomalyEvent& ev : round_events_) queue_.push(ev);
  }

  for (detail::ZoneState& z : zones_) {
    z.queue.clear();  // capacity retained — steady-state allocation-free
    z.cursor = 0;
  }
  ++stats_.flushes_total;
  stats_.events_dropped = queue_.dropped();

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (flush_hist_ != nullptr) flush_hist_->record(elapsed.count());
  publish_telemetry();
  span.annotate("samples", static_cast<std::uint64_t>(processed));
  span.annotate("queue_depth", static_cast<std::uint64_t>(queue_.size()));
  return processed;
}

void StreamPipeline::publish_telemetry() {
  if (samples_counter_ != nullptr) {
    samples_counter_->add(
        static_cast<double>(stats_.samples_total - published_.samples_total));
    events_counter_->add(
        static_cast<double>(stats_.events_total - published_.events_total));
    not_ready_counter_->add(static_cast<double>(stats_.not_ready_total -
                                                published_.not_ready_total));
    gaps_counter_->add(
        static_cast<double>(stats_.gaps_total - published_.gaps_total));
    reseeds_counter_->add(
        static_cast<double>(stats_.reseeds_total - published_.reseeds_total));
    published_ = stats_;
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    dropped_gauge_->set(static_cast<double>(queue_.dropped()));
  }
}

std::size_t StreamPipeline::drain(std::vector<AnomalyEvent>& out) {
  const std::size_t n = queue_.drain(out);
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set(0.0);
    dropped_gauge_->set(static_cast<double>(queue_.dropped()));
  }
  return n;
}

StreamStats StreamPipeline::stats() const {
  StreamStats s = stats_;
  s.events_dropped = queue_.dropped();
  return s;
}

bool StreamPipeline::ready(std::uint32_t zone) const {
  return zone_at(zone).filled == lookback_;
}

float StreamPipeline::threshold(std::uint32_t zone) const {
  return zone_at(zone).threshold;
}

const anomaly::IncrementalThreshold& StreamPipeline::estimator(
    std::uint32_t zone) const {
  return zone_at(zone).estimator;
}

std::vector<float> batch_scores(forecast::Engine& engine,
                                const std::vector<float>& series,
                                const runtime::RunContext* ctx) {
  const forecast::ForecasterConfig& mc = engine.model_config();
  EVFL_REQUIRE(mc.input_features == 1, "batch_scores: univariate series only");
  const std::size_t lookback = mc.sequence_length;
  EVFL_REQUIRE(series.size() > lookback,
               "batch_scores: series no longer than the lookback");
  const std::size_t max_batch = engine.config().max_batch;

  const std::size_t n = series.size() - lookback;
  tensor::Tensor3 x(std::min(n, max_batch), lookback, 1);
  std::vector<float> forecasts(x.batch(), 0.0f);
  std::vector<float> out(n, 0.0f);

  std::size_t done = 0;
  while (done < n) {
    const std::size_t rows = std::min(n - done, max_batch);
    for (std::size_t r = 0; r < rows; ++r) {
      float* dst = x.data() + r * lookback;
      const float* src = series.data() + done + r;
      std::copy(src, src + lookback, dst);
    }
    engine.score_prefix(x, rows, forecasts.data(), ctx);
    for (std::size_t r = 0; r < rows; ++r) {
      const float err = forecasts[r] - series[done + r + lookback];
      out[done + r] = err * err;
    }
    done += rows;
  }
  return out;
}

}  // namespace evfl::stream
