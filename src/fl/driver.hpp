// Federated-round orchestration behind one Driver interface.
//
// SyncDriver runs clients in deterministic order — the default for
// experiments, bit-reproducible given seeds.  Given a RunContext with a
// thread pool it trains the round's clients concurrently (one task per
// client) while keeping update aggregation in client order, so results
// stay bit-identical to the serial schedule and "simulated parallel
// seconds" becomes real wall-clock parallelism.  ThreadedDriver runs each
// client on its own std::thread communicating through the InMemoryNetwork,
// demonstrating (and testing) that the protocol tolerates concurrency,
// message loss, stragglers and Byzantine clients.  Both route every
// parameter exchange through the serialized wire format.
//
// Robustness model: each round has a deadline.  At the deadline the server
// aggregates whatever validated updates arrived (partial aggregation); the
// Server's UpdateValidator rejects stale/duplicate/non-finite updates and
// its quorum decides whether the round moves the global model at all.  An
// optional FaultInjector scripts crashes, stragglers, corruption,
// duplicates and replays for both drivers through one seed-deterministic
// plan.
#pragma once

#include <memory>
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
/// clients whether the fleet is flat, tree-sharded, sync, or threaded.
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

/// Per-round protocol knobs shared by both drivers.
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
  /// Slowest client's local-training time this round: the round's duration
  /// under genuine client parallelism.
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
  /// Sum over rounds of max_client_seconds — training time a physically
  /// distributed deployment would observe (clients train concurrently).
  double simulated_parallel_seconds = 0.0;

  /// Per-run totals of the per-round robustness counters.
  std::size_t total_rejected_updates() const;
  std::size_t total_late_updates() const;
  std::size_t total_timed_out_clients() const;
};

/// Common interface over the execution models, so callers pick a driver at
/// runtime without caring how rounds are scheduled.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual FederatedRunResult run(std::size_t rounds) = 0;
};

class SyncDriver : public Driver {
 public:
  /// `ctx` (optional, non-owning) supplies the thread pool for pool-backed
  /// rounds; nullptr or a serial context trains clients one at a time.  Its
  /// trace writer, when set, receives per-round and per-client-train spans.
  /// `injector` (optional, non-owning) scripts faults; it is also attached
  /// to the network so message-level faults (duplicates) apply.
  /// `telemetry` (optional, non-owning) receives one RoundTelemetry record
  /// per federated round.  `adversary` (optional, non-owning) poisons
  /// attacker-client updates after local training, before encoding — the
  /// point a compromised client controls in a real deployment.
  SyncDriver(Server& server, std::vector<std::unique_ptr<Client>>& clients,
             InMemoryNetwork& net, const runtime::RunContext* ctx = nullptr,
             const faults::FaultInjector* injector = nullptr,
             RoundPolicy policy = {},
             obs::RoundTelemetrySink* telemetry = nullptr,
             const AdversarySuite* adversary = nullptr);

  FederatedRunResult run(std::size_t rounds) override;

 private:
  Server* server_;
  std::vector<std::unique_ptr<Client>>* clients_;
  InMemoryNetwork* net_;
  const runtime::RunContext* ctx_;
  const faults::FaultInjector* injector_;
  RoundPolicy policy_;
  obs::RoundTelemetrySink* telemetry_;
  const AdversarySuite* adversary_;
};

class ThreadedDriver : public Driver {
 public:
  /// Same parameters as SyncDriver.  `ctx` is used only for its trace
  /// writer (worker threads schedule themselves); rounds close at
  /// policy.round_deadline_ms — the server aggregates the validated
  /// partial set and never blocks past the deadline; `adversary` is handed
  /// to every client's serve loop.
  ThreadedDriver(Server& server, std::vector<std::unique_ptr<Client>>& clients,
                 InMemoryNetwork& net, const runtime::RunContext* ctx = nullptr,
                 const faults::FaultInjector* injector = nullptr,
                 RoundPolicy policy = {},
                 obs::RoundTelemetrySink* telemetry = nullptr,
                 const AdversarySuite* adversary = nullptr);

  FederatedRunResult run(std::size_t rounds) override;

 private:
  Server* server_;
  std::vector<std::unique_ptr<Client>>* clients_;
  InMemoryNetwork* net_;
  const runtime::RunContext* ctx_;
  const faults::FaultInjector* injector_;
  RoundPolicy policy_;
  obs::RoundTelemetrySink* telemetry_;
  const AdversarySuite* adversary_;
};

}  // namespace evfl::fl
