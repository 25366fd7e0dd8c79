#include "fl/fleet.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "data/scaler.hpp"
#include "data/window.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

namespace {

/// Salt separating a leaf's model/shuffle RNG stream from its data stream
/// (both derive from the spec's series_seed, so a leaf re-materialized in a
/// later round trains identically).
constexpr std::uint64_t kLeafModelSalt = 0xBF58476D1CE4E5B9ull;

}  // namespace

FleetDriver::FleetDriver(Aggregator& root,
                         std::vector<datagen::ClientSpec> fleet,
                         ModelFactory factory, FleetDriverConfig cfg,
                         const runtime::RunContext* ctx,
                         const faults::FaultInjector* injector,
                         obs::RoundTelemetrySink* telemetry)
    : Driver(root, RoundPolicy{cfg.round_deadline_ms, cfg.sampling}, ctx,
             injector, telemetry, cfg.adversary),
      fleet_(std::move(fleet)),
      factory_(std::move(factory)),
      cfg_(cfg) {
  EVFL_REQUIRE(!fleet_.empty(), "FleetDriver: empty fleet");
  EVFL_REQUIRE(cfg_.edges >= 1, "FleetDriver: need at least one edge");
  EVFL_REQUIRE(cfg_.lookback >= 1 && cfg_.lookback < 48,
               "FleetDriver: lookback must fit the shortest series (48h)");

  const std::size_t leaves = fleet_.size();
  const std::size_t edge_count = std::min(cfg_.edges, leaves);

  // Edge codecs: the shard-facing broadcast reuses the root's downlink codec
  // (so every tier broadcasts the same way), while the edge->root uplink
  // reuses the leaves' upload codec.  Both default to kDense == exact.
  edges_.reserve(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    edges_.push_back(std::make_unique<EdgeAggregator>(
        edge_node_id(e), root_->weights(), cfg_.fedavg, cfg_.edge_validator,
        root_->codec(), cfg_.client.codec));
  }
  edge_mutex_.reset(new std::mutex[edge_count]);

  // Contiguous block shards: leaf i belongs to edge i*E/L.  The partition
  // depends only on (i, E, L), so the same fleet re-shards deterministically.
  shard_of_.resize(leaves);
  ids_.resize(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    shard_of_[i] = i * edge_count / leaves;
    ids_[i] = fleet_[i].id;
    if (injector_ != nullptr && injector_->may_replay_stale(ids_[i])) {
      kept_uploads_.try_emplace(i);
    }
  }
}

Driver::Exchange FleetDriver::exchange(
    std::uint32_t round, const std::vector<std::size_t>& cohort) {
  const std::size_t edge_count = edges_.size();
  Exchange ex;
  ex.edges = RoundAudit{};

  // --- tier 1: root -> edges -------------------------------------------
  const std::vector<std::uint8_t>& root_wire = root_->broadcast_wire();
  std::vector<char> alive(edge_count, 0);
  std::vector<std::size_t> shard_bytes(edge_count, 0);
  std::vector<GlobalModel> shard_model(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    if (injector_ != nullptr &&
        injector_->should_crash(edge_node_id(e), round)) {
      continue;  // this shard goes dark for the whole round
    }
    alive[e] = 1;
    edges_[e]->begin_round(root_wire);
    ex.bytes_down += root_wire.size();
    ++ex.messages_down;
    // One shared read-only broadcast buffer per shard — every sampled leaf
    // of the shard reads this same buffer and this same decode.
    const std::vector<std::uint8_t>& shard_wire =
        edges_[e]->shard_broadcast_wire();
    shard_bytes[e] = shard_wire.size();
    deserialize_global_into(shard_wire, shard_model[e]);
  }

  // --- tier 2: edges -> sampled leaves ---------------------------------
  // Per cohort slot: delivered uploads (0 = timed out) and their bytes,
  // stale replays and duplicate copies included, and the fresh loss.
  std::vector<std::uint32_t> up_messages(cohort.size(), 0);
  std::vector<std::uint64_t> up_bytes(cohort.size(), 0);
  std::vector<float> up_loss(cohort.size(), 0.0f);
  ex.client_seconds.assign(cohort.size(), 0.0);
  const StepOptions step = step_options();
  const auto leaf_task = [&](std::size_t k) {
    const datagen::ClientSpec& spec = fleet_[cohort[k]];
    const std::size_t e = shard_of_[cohort[k]];
    if (!alive[e]) return;  // already counted as dropped

    // Lazy materialization: series -> scaler -> windows -> model live only
    // inside this task, so peak memory tracks the worker-pool width, not
    // the fleet size.
    data::TimeSeries series = datagen::materialize_series(spec);
    data::MinMaxScaler scaler;
    scaler.fit(series.values);
    const std::vector<float> scaled = scaler.transform(series.values);
    data::SequenceDataset ds =
        data::make_forecast_sequences(scaled, cfg_.lookback);
    // Data poisoning happens on the freshly materialized training set, so
    // the poisoned update flows through the *real* training path.
    if (adversary_ != nullptr) {
      adversary_->poison_labels(spec.id, round, ds.x, ds.y);
    }
    Client client(spec.id, std::move(ds.x), std::move(ds.y), factory_,
                  cfg_.client, tensor::Rng(spec.series_seed ^ kLeafModelSalt));
    ctx_->count("fleet.clients_materialized");

    // A leaf a stale-replay rule names gets back the upload it kept last
    // round, so participate() can replay it, and keeps this round's.
    const auto kept = kept_uploads_.find(cohort[k]);
    if (kept != kept_uploads_.end()) {
      client.previous_upload().swap(kept->second);
    }
    const StepResult out = client.participate(shard_model[e], step);
    if (kept != kept_uploads_.end()) {
      kept->second.swap(client.previous_upload());
    }
    ex.client_seconds[k] = out.seconds;
    if (out.upload == nullptr) return;  // crashed or too late
    WeightUpdate decoded;
    deserialize_update_into(*out.upload, decoded);
    up_loss[k] = decoded.train_loss;
    // Scripted duplicate delivery, asked once per delivered upload.
    const int copies = injector_ != nullptr
                           ? injector_->duplicate_copies(spec.id, round)
                           : 0;
    up_messages[k] = 1 + static_cast<std::uint32_t>(copies);
    up_bytes[k] = up_messages[k] * out.upload->size();
    std::lock_guard<std::mutex> lock(edge_mutex_[e]);
    // The stale replay goes out ahead of the fresh upload and the copies
    // after it; the edge's validator judges every arrival, as the root's
    // does in SyncDriver, and keeps the first copy.
    if (!out.stale.empty()) {
      ++up_messages[k];
      up_bytes[k] += out.stale.size();
      edges_[e]->offer(deserialize_update(out.stale));
    }
    edges_[e]->offer(std::move(decoded));
    for (int c = 0; c < copies; ++c) {
      edges_[e]->offer(deserialize_update(*out.upload));
    }
  };
  ctx_->parallel_for(cohort.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) leaf_task(k);
  });

  // Deterministic (cohort-order) reductions after the barrier.
  double loss_sum = 0.0;
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    const std::size_t e = shard_of_[cohort[k]];
    if (!alive[e]) {
      ++ex.dropped;  // the shard's broadcast never went out
      continue;
    }
    ++ex.reached;
    ex.bytes_down += shard_bytes[e];
    ++ex.messages_down;
    if (up_messages[k] == 0) continue;  // crashed or too late: timed out
    ++ex.fresh;
    loss_sum += static_cast<double>(up_loss[k]);
    ex.bytes_up += up_bytes[k];
    ex.messages_up += up_messages[k];
  }
  ex.mean_train_loss =
      ex.fresh > 0 ? static_cast<float>(loss_sum / ex.fresh) : 0.0f;

  // --- tier 1 close: edges forward to the root -------------------------
  for (std::size_t e = 0; e < edge_count; ++e) {
    if (!alive[e]) continue;
    const std::vector<std::uint8_t>* fw = edges_[e]->forward_wire();
    add_audit(*ex.edges, edges_[e]->last_audit());
    if (fw == nullptr) continue;  // under per-tier quorum: partial round
    ex.bytes_up += fw->size();
    ++ex.messages_up;
    WeightUpdate up;
    deserialize_update_into(*fw, up);
    root_->offer(std::move(up));
  }
  return ex;
}

}  // namespace evfl::fl
