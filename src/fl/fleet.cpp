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
  // Per cohort slot; an offered upload always has bytes.
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

    const StepResult out = client.participate(shard_model[e], step);
    ex.client_seconds[k] = out.seconds;
    if (out.upload == nullptr) return;  // crashed or too late
    WeightUpdate decoded;
    deserialize_update_into(*out.upload, decoded);
    up_bytes[k] = out.upload->size();
    up_loss[k] = decoded.train_loss;
    std::lock_guard<std::mutex> lock(edge_mutex_[e]);
    edges_[e]->offer(std::move(decoded));
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
    if (up_bytes[k] == 0) continue;  // crashed or too late: timed out
    ++ex.fresh;
    loss_sum += static_cast<double>(up_loss[k]);
    ex.bytes_up += up_bytes[k];
    ++ex.messages_up;
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
