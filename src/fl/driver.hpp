// Federated-round orchestration.  Driver::run is the one round loop: each
// round it samples the cohort, opens the "fl.round" span, runs the driver's
// exchange, closes the root, and fills RoundMetrics, RoundTelemetry and the
// fl.* counters.  SyncDriver and FleetDriver (fl/fleet.hpp) supply only
// their exchange; every participant runs the same step, Client::participate,
// and every parameter exchange crosses the serialized wire format.  Rounds
// run in virtual time: a client's round time is its measured training
// seconds plus any scripted straggler delay, and nothing sleeps.
//
// Robustness model: each round has a deadline.  At the deadline the root
// aggregates whatever validated updates arrived (partial aggregation); its
// UpdateValidator rejects stale/duplicate/non-finite updates and its quorum
// decides whether the round moves the global model at all.  An optional
// FaultInjector scripts crashes, stragglers, corruption, duplicates and
// replays for every driver through one seed-deterministic plan.
#pragma once

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "faults/fault_injector.hpp"
#include "fl/client.hpp"
#include "fl/network.hpp"
#include "fl/server.hpp"
#include "obs/round_telemetry.hpp"
#include "runtime/run_context.hpp"

namespace evfl::fl {

/// How the driver picks which clients participate each round.  Selection is
/// a pure hash of (seed, round, client_id) — independent of topology,
/// thread schedule, and driver choice, so the same policy samples the same
/// clients whether the fleet is flat or tree-sharded, serial or pooled.
enum class SamplingMode {
  kAll,        // every client, every round (the historical behavior)
  kBernoulli,  // each client independently with probability `fraction`
  kFixedSize,  // exactly min(count, population) clients per round
};

struct SamplingPolicy {
  SamplingMode mode = SamplingMode::kAll;
  double fraction = 1.0;    // kBernoulli participation probability, (0, 1]
  std::size_t count = 0;    // kFixedSize cohort size, >= 1
  std::uint64_t seed = 17;
};

/// Uniform hash of (seed, round, client_id) into [0, 1) — the sampling
/// coin.  Splitmix-based, no state.
double sampling_hash01(std::uint64_t seed, std::uint32_t round, int client_id);

/// Indices into `ids` of the clients sampled for `round` under `policy`,
/// in ascending index order.  kFixedSize ranks clients by hash (ties by id)
/// and takes the smallest `count`.
std::vector<std::size_t> select_sampled(const SamplingPolicy& policy,
                                        std::uint32_t round,
                                        const std::vector<int>& ids);

/// Per-round protocol knobs shared by every driver.
struct RoundPolicy {
  /// Hard per-round collection deadline: the server never waits longer than
  /// this for updates; stragglers past it are partially aggregated away.
  double round_deadline_ms = 120'000.0;
  /// Which clients participate each round.  Unsampled clients never receive
  /// the broadcast, so they can neither contribute nor time out.
  SamplingPolicy sampling;
};

struct RoundMetrics {
  std::uint32_t round = 0;
  float mean_train_loss = 0.0f;
  /// Updates accepted by the validator and aggregated this round.
  std::size_t updates_received = 0;
  double weight_delta = 0.0;     // L2 movement of the global model
  double wall_seconds = 0.0;
  /// Slowest cohort member's virtual round time (training seconds plus
  /// straggler delay).  The round lasts until this time or its deadline,
  /// whichever comes first.
  double max_client_seconds = 0.0;
  /// Messages the (simulated) network lost this round — dropped broadcasts
  /// and dropped/undeliverable updates.  A lossy round degrades, it never
  /// aborts.
  std::size_t dropped_messages = 0;
  /// Arrivals the validator rejected: non-finite payloads, wrong-dimension
  /// payloads, and duplicate (client, round) sends.
  std::size_t rejected_updates = 0;
  /// Arrivals carrying a past round number (straggler or replay).
  std::size_t late_updates = 0;
  /// Clients that received this round's broadcast yet contributed no
  /// current-round update before the round closed (crashed, straggling, or
  /// their upload was lost).  Clients whose broadcast the network dropped
  /// are counted in dropped_messages, not here — and unsampled clients are
  /// counted nowhere: a client that was never asked cannot time out.
  std::size_t timed_out_clients = 0;
  /// Total clients the driver manages (the fleet size).
  std::size_t population = 0;
  /// Clients selected to participate this round (== population when
  /// sampling is kAll).
  std::size_t sampled_clients = 0;
};

struct FederatedRunResult {
  std::vector<RoundMetrics> rounds;
  std::vector<float> final_weights;
  NetworkStats network;
  double total_seconds = 0.0;
  /// Sum over rounds of the round's duration, max_client_seconds capped at
  /// the round deadline — training time a physically distributed deployment
  /// would observe (clients train concurrently, and a round closes at its
  /// deadline).
  double simulated_parallel_seconds = 0.0;

  /// Per-run totals of the per-round robustness counters.
  std::size_t total_rejected_updates() const;
  std::size_t total_late_updates() const;
  std::size_t total_timed_out_clients() const;
};

/// The round loop every driver shares; a driver supplies only its exchange.
class Driver {
 public:
  virtual ~Driver() = default;
  FederatedRunResult run(std::size_t rounds);

 protected:
  /// What one round's exchange hands back to the loop.  The exchange has
  /// offered every arrival to the root; the loop closes it.
  struct Exchange {
    /// Cohort members that received the broadcast: only they can time out.
    std::size_t reached = 0;
    /// Reached members whose current-round update arrived.
    std::size_t fresh = 0;
    /// Messages lost this round.
    std::size_t dropped = 0;
    float mean_train_loss = 0.0f;
    /// Per cohort member, in cohort order.
    std::vector<double> client_seconds;
    /// Delivered messages and their wire bytes, per direction.
    std::uint64_t messages_down = 0, messages_up = 0;
    std::uint64_t bytes_down = 0, bytes_up = 0;
    /// Summed audit of an edge tier that judged the leaves; empty when the
    /// leaves report to the root directly.
    std::optional<RoundAudit> edges;
  };

  /// `ctx` may be null (serial, untraced, uncounted).  The derived
  /// constructor fills ids_.
  Driver(Aggregator& root, RoundPolicy policy, const runtime::RunContext* ctx,
         const faults::FaultInjector* injector,
         obs::RoundTelemetrySink* telemetry, const AdversarySuite* adversary);

  /// Broadcast round `round` to `cohort` (indices into ids_), run its
  /// participants and offer what arrived to the root.
  virtual Exchange exchange(std::uint32_t round,
                            const std::vector<std::size_t>& cohort) = 0;
  /// FederatedRunResult::network: by default the run's own tally of the
  /// exchanges' traffic.
  virtual NetworkStats traffic(const NetworkStats& tally) const {
    return tally;
  }

  /// The participant step every exchange runs.
  StepOptions step_options() const;
  static void add_audit(RoundAudit& into, const RoundAudit& from);

  Aggregator* root_;
  std::vector<int> ids_;  // participant i's id, hashed by sampling
  RoundPolicy policy_;
  const runtime::RunContext* ctx_;  // never null
  const faults::FaultInjector* injector_;
  obs::RoundTelemetrySink* telemetry_;
  const AdversarySuite* adversary_;
};

/// Built Clients reporting straight to the root over an InMemoryNetwork.
/// Clients train inline, or concurrently on the context's pool.  The
/// broadcast crosses the network before dispatch and the uploads after the
/// barrier, both in cohort order, so a pooled run is bit-identical to the
/// serial one, on a lossy network too.
class SyncDriver : public Driver {
 public:
  /// `ctx` (optional, non-owning) supplies the thread pool and trace
  /// writer.  `injector` (optional, non-owning) scripts faults, duplicate
  /// deliveries of a client's update included.
  /// `telemetry` (optional, non-owning) receives one RoundTelemetry record
  /// per round.  `adversary` (optional, non-owning) poisons attacker-client
  /// updates after local training, before encoding — the point a
  /// compromised client controls in a real deployment.
  SyncDriver(Server& server, std::vector<std::unique_ptr<Client>>& clients,
             InMemoryNetwork& net, const runtime::RunContext* ctx = nullptr,
             const faults::FaultInjector* injector = nullptr,
             RoundPolicy policy = {},
             obs::RoundTelemetrySink* telemetry = nullptr,
             const AdversarySuite* adversary = nullptr);

 protected:
  Exchange exchange(std::uint32_t round,
                    const std::vector<std::size_t>& cohort) override;
  /// The network's running totals.
  NetworkStats traffic(const NetworkStats& tally) const override;

 private:
  std::vector<std::unique_ptr<Client>>* clients_;
  InMemoryNetwork* net_;
  std::unordered_set<int> known_;
};

}  // namespace evfl::fl
