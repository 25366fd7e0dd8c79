// FleetDriver — hierarchical federation at fleet scale.
//
// Topology: root Aggregator ← E EdgeAggregators ← L ClientSpec leaves
// (contiguous block shards).  Each round:
//
//   1. the root encodes one broadcast; every (non-crashed) edge adopts it,
//   2. each edge encodes one shard broadcast — a single buffer its whole
//      shard reads (the downlink costs O(E) memory, not O(L)),
//   3. the round's *sampled* leaves are materialized lazily — series,
//      scaler, windows, model, trainer all built from the ClientSpec, run
//      through Client::participate, offered to their edge inside the
//      worker task, and destroyed — so peak memory follows the worker-pool
//      width, never the fleet size,
//   4. each edge closes its shard round and forwards ONE update upstream
//      (exact fixed-point sums under kDense — bit-identical to flat
//      aggregation; codec-encoded mean otherwise), and the root closes.
//
// This is FleetDriver's exchange; Driver::run supplies the round loop
// (sampling, "fl.round" span, root close, metrics, telemetry).
//
// Fault semantics per tier: a crashed edge silently drops its whole shard
// for the round (partial aggregation at the root — never an abort); a
// crashed/straggling leaf times out against its edge exactly as in the flat
// drivers, and a leaf's duplicate deliveries and stale replays reach its
// edge as in SyncDriver (the leaf's last upload is carried across rounds
// only for leaves a stale-replay rule names).  Quorum is evaluated per tier
// by each node's own validator.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "datagen/fleet.hpp"
#include "faults/fault_injector.hpp"
#include "fl/aggregator.hpp"
#include "fl/client.hpp"
#include "fl/driver.hpp"
#include "obs/round_telemetry.hpp"
#include "runtime/run_context.hpp"

namespace evfl::fl {

struct FleetDriverConfig {
  /// Number of edge aggregators (>= 1).  Leaves are sharded into E
  /// contiguous blocks.
  std::size_t edges = 1;
  /// Which leaves participate each round (applied over the whole fleet,
  /// independent of sharding — the same cohort regardless of `edges`).
  SamplingPolicy sampling;
  /// Per-leaf training configuration; its codec is the leaf→edge wire.
  ClientConfig client;
  FedAvgConfig fedavg;
  /// Validator each edge runs over its shard (the root keeps its own).
  ValidatorConfig edge_validator;
  /// Forecast window: leaves train on sequences of this many hours.
  std::size_t lookback = 24;
  /// Simulated per-round deadline for leaves (straggler delays are virtual
  /// time, as in SyncDriver); <= 0 makes every leaf late.
  double round_deadline_ms = 120'000.0;
  /// Optional adaptive adversary (non-owning).  Data-poisoning kinds
  /// relabel a leaf's freshly materialized training set; model-poisoning
  /// kinds rewrite its update before the leaf→edge wire.
  const AdversarySuite* adversary = nullptr;
};

class FleetDriver : public Driver {
 public:
  /// `root`'s weights define the model dimension; its codec is the
  /// edge→root wire (kDense ⇒ exact forwarding).  `ctx` supplies the worker
  /// pool that bounds how many leaves are materialized at once, and the
  /// trace writer for the round and leaf-training spans.
  FleetDriver(Aggregator& root, std::vector<datagen::ClientSpec> fleet,
              ModelFactory factory, FleetDriverConfig cfg = {},
              const runtime::RunContext* ctx = nullptr,
              const faults::FaultInjector* injector = nullptr,
              obs::RoundTelemetrySink* telemetry = nullptr);

  /// Fault-plan node id of edge `e` (disjoint from leaf ids >= 0 and from
  /// -1, the client id a broadcast carries), so crash rules can target an
  /// aggregator tier.
  static int edge_node_id(std::size_t e) { return -2 - static_cast<int>(e); }

  std::size_t population() const { return fleet_.size(); }

 protected:
  Exchange exchange(std::uint32_t round,
                    const std::vector<std::size_t>& cohort) override;

 private:
  std::vector<datagen::ClientSpec> fleet_;
  ModelFactory factory_;
  FleetDriverConfig cfg_;
  std::vector<std::unique_ptr<EdgeAggregator>> edges_;
  /// One per edge: leaves of one shard serialize only their offer().
  std::unique_ptr<std::mutex[]> edge_mutex_;
  std::vector<std::size_t> shard_of_;  // leaf slot -> edge index
  /// Leaf slot -> its last upload, for the leaves a stale-replay rule may
  /// replay (so the plan, not the fleet, bounds it).  Keys are fixed at
  /// construction; each round's leaf task swaps only its own value.
  std::unordered_map<std::size_t, std::vector<std::uint8_t>> kept_uploads_;
};

}  // namespace evfl::fl
