#include "fl/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "fl/serialize.hpp"

namespace evfl::fl {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

double sampling_hash01(std::uint64_t seed, std::uint32_t round,
                       int client_id) {
  const std::uint64_t id_bits =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(client_id));
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ (static_cast<std::uint64_t>(round) << 32)) ^ id_bits);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<std::size_t> select_sampled(const SamplingPolicy& policy,
                                        std::uint32_t round,
                                        const std::vector<int>& ids) {
  std::vector<std::size_t> out;
  switch (policy.mode) {
    case SamplingMode::kAll: {
      out.resize(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) out[i] = i;
      return out;
    }
    case SamplingMode::kBernoulli: {
      EVFL_REQUIRE(policy.fraction > 0.0 && policy.fraction <= 1.0,
                   "sampling fraction must be in (0, 1]");
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (sampling_hash01(policy.seed, round, ids[i]) < policy.fraction) {
          out.push_back(i);
        }
      }
      return out;
    }
    case SamplingMode::kFixedSize: {
      EVFL_REQUIRE(policy.count >= 1, "sampling count must be >= 1");
      if (policy.count >= ids.size()) {
        out.resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) out[i] = i;
        return out;
      }
      // Rank every client by its hash (ties by id) and keep the smallest
      // `count` — a deterministic uniform cohort independent of ordering.
      std::vector<std::size_t> ranked(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) ranked[i] = i;
      std::vector<double> keys(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        keys[i] = sampling_hash01(policy.seed, round, ids[i]);
      }
      std::nth_element(ranked.begin(), ranked.begin() + policy.count,
                       ranked.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] != keys[b] ? keys[a] < keys[b]
                                                   : ids[a] < ids[b];
                       });
      out.assign(ranked.begin(), ranked.begin() + policy.count);
      std::sort(out.begin(), out.end());
      return out;
    }
  }
  return out;  // unreachable
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Diagnostic mean training loss over the round's raw arrivals (corrupted
/// or stale arrivals included — it is a health signal, not an input to
/// aggregation).
float mean_loss(const std::vector<WeightUpdate>& raw) {
  if (raw.empty()) return 0.0f;
  double acc = 0.0;
  for (const WeightUpdate& u : raw) acc += u.train_loss;
  return static_cast<float>(acc / raw.size());
}

/// Distinct clients that contributed a *current-round* update.  A stale
/// replay or leftover straggler message is not a contribution: that client
/// still timed out on this round.
std::size_t distinct_fresh_senders(const std::vector<WeightUpdate>& raw,
                                   std::uint32_t round) {
  std::unordered_set<int> ids;
  for (const WeightUpdate& u : raw) {
    if (u.round == round) ids.insert(u.client_id);
  }
  return ids.size();
}

/// `reachable_clients` is the number of clients that actually received this
/// round's broadcast: only those could have contributed, so only those can
/// *time out*.  Clients whose broadcast the lossy network dropped are
/// accounted in dropped_messages, not here.
RoundMetrics close_round(Server& server, std::uint32_t round,
                         std::vector<WeightUpdate> raw,
                         std::size_t reachable_clients, double wall_seconds) {
  RoundMetrics m;
  m.round = round;
  m.mean_train_loss = mean_loss(raw);
  const std::size_t fresh = distinct_fresh_senders(raw, round);
  m.timed_out_clients = reachable_clients > fresh ? reachable_clients - fresh : 0;
  m.wall_seconds = wall_seconds;
  // Deterministic aggregation order whatever the arrival schedule: stable
  // sort by client id (duplicates stay adjacent, first arrival first).
  std::stable_sort(raw.begin(), raw.end(),
                   [](const WeightUpdate& a, const WeightUpdate& b) {
                     return a.client_id < b.client_id;
                   });
  m.weight_delta = server.finish_round(std::move(raw));
  const RoundAudit& audit = server.last_audit();
  m.updates_received = audit.accepted;
  m.rejected_updates = audit.rejected_nonfinite + audit.rejected_duplicate +
                       audit.rejected_dimension;
  m.late_updates = audit.rejected_stale;
  return m;
}

/// One telemetry record from the closed round's counters, the validator's
/// audit, and the transport byte counts the driver measured.
obs::RoundTelemetry round_telemetry(const RoundMetrics& rm,
                                    const RoundAudit& audit,
                                    std::vector<double> client_seconds,
                                    std::uint64_t bytes_down,
                                    std::uint64_t bytes_up,
                                    std::uint64_t logical_down,
                                    std::uint64_t logical_up) {
  obs::RoundTelemetry rt;
  rt.round = rm.round;
  rt.wall_seconds = rm.wall_seconds;
  rt.max_client_seconds = rm.max_client_seconds;
  rt.client_train_seconds = std::move(client_seconds);
  rt.bytes_down = bytes_down;
  rt.bytes_up = bytes_up;
  rt.logical_bytes_down = logical_down;
  rt.logical_bytes_up = logical_up;
  rt.updates_accepted = rm.updates_received;
  rt.rejected_updates = rm.rejected_updates;
  rt.late_updates = rm.late_updates;
  rt.dropped_messages = rm.dropped_messages;
  rt.timed_out_clients = rm.timed_out_clients;
  rt.population = rm.population;
  rt.sampled_clients = rm.sampled_clients;
  rt.rejected_nonfinite = audit.rejected_nonfinite;
  rt.rejected_stale = audit.rejected_stale;
  rt.rejected_duplicate = audit.rejected_duplicate;
  rt.rejected_dimension = audit.rejected_dimension;
  rt.clipped = audit.clipped;
  rt.clipped_aggregates = audit.clipped_aggregates;
  rt.quorum_met = audit.quorum_met;
  return rt;
}

}  // namespace

std::size_t FederatedRunResult::total_rejected_updates() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.rejected_updates;
  return n;
}

std::size_t FederatedRunResult::total_late_updates() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.late_updates;
  return n;
}

std::size_t FederatedRunResult::total_timed_out_clients() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.timed_out_clients;
  return n;
}

SyncDriver::SyncDriver(Server& server,
                       std::vector<std::unique_ptr<Client>>& clients,
                       InMemoryNetwork& net, const runtime::RunContext* ctx,
                       const faults::FaultInjector* injector,
                       RoundPolicy policy, obs::RoundTelemetrySink* telemetry,
                       const AdversarySuite* adversary)
    : server_(&server),
      clients_(&clients),
      net_(&net),
      ctx_(ctx),
      injector_(injector),
      policy_(policy),
      telemetry_(telemetry),
      adversary_(adversary) {
  EVFL_REQUIRE(!clients.empty(), "SyncDriver needs clients");
  if (injector_ != nullptr) net_->set_fault_injector(injector_);
}

FederatedRunResult SyncDriver::run(std::size_t rounds) {
  const auto t0 = Clock::now();
  FederatedRunResult result;
  const std::size_t n = clients_->size();
  obs::TraceWriter* trace = ctx_ != nullptr ? ctx_->trace : nullptr;

  std::unordered_set<int> known_ids;
  std::vector<int> ids;
  ids.reserve(n);
  for (const auto& client : *clients_) {
    known_ids.insert(client->id());
    ids.push_back(client->id());
  }

  // Previous serialized update per client slot, for stale-replay injection.
  std::vector<std::vector<std::uint8_t>> last_sent(n);

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto round_t0 = Clock::now();
    const std::uint32_t round = server_->round();
    // Unsampled clients never see the broadcast this round: no message, no
    // training, no timeout accounting.
    const std::vector<std::size_t> sampled =
        select_sampled(policy_.sampling, round, ids);
    // One wire encoding per round (codec-aware); every client receives a
    // copy of the same bytes, exactly like a real broadcast.
    const std::vector<std::uint8_t>& broadcast_wire = server_->broadcast_wire();
    // Dense-equivalent size of one message this round — the "logical" cost
    // an uncompressed v1 exchange would have paid.
    const std::uint64_t logical_msg_bytes =
        kWireHeaderBytesV1 + server_->weights().size() * sizeof(float);
    obs::TraceSpan round_span(trace, "fl.round", "fl");
    round_span.annotate("round", static_cast<std::uint64_t>(round));
    round_span.annotate("clients", static_cast<std::uint64_t>(n));
    round_span.annotate("sampled", static_cast<std::uint64_t>(sampled.size()));

    std::atomic<std::size_t> dropped{0};
    std::atomic<std::size_t> reached{0};
    std::atomic<std::uint64_t> bytes_down{0};
    std::vector<double> client_seconds(n, 0.0);
    auto run_client = [&](std::size_t c) {
      Client& client = *(*clients_)[c];
      // Broadcast leg: global weights cross the wire to this client.
      const std::uint64_t broadcast_size = broadcast_wire.size();
      if (!net_->send(Message{kServerNode, client.id(), broadcast_wire})) {
        ++dropped;  // simulated network dropped the broadcast
        return;
      }
      std::optional<Message> down = net_->try_receive(client.id());
      if (!down) {
        ++dropped;  // self-message lost: degrade the round, never abort
        return;
      }
      ++reached;  // broadcast delivered: this client can now time out
      bytes_down.fetch_add(broadcast_size, std::memory_order_relaxed);
      const GlobalModel received = deserialize_global(down->bytes);

      // Crash-before-update: broadcast consumed, nothing contributed.
      if (injector_ != nullptr &&
          injector_->should_crash(client.id(), received.round)) {
        return;
      }

      obs::TraceSpan train_span(trace, "fl.client_train", "fl");
      train_span.annotate("client", static_cast<std::uint64_t>(client.id()));
      train_span.annotate("round",
                          static_cast<std::uint64_t>(received.round));
      WeightUpdate update = client.train_round(received);
      train_span.end();
      // Attacker clients poison their update before scripted corruption and
      // before encoding — the point a compromised client controls.
      if (adversary_ != nullptr) {
        adversary_->poison_update(update, received.weights);
      }
      double elapsed = client.last_train_seconds();
      if (injector_ != nullptr) {
        // Straggler delay is simulated time in the sync schedule — it
        // counts against the deadline without sleeping the run.
        elapsed +=
            injector_->straggler_delay_ms(client.id(), received.round) / 1e3;
      }
      client_seconds[c] = elapsed;
      if (policy_.round_deadline_ms > 0.0 &&
          elapsed * 1000.0 > policy_.round_deadline_ms) {
        return;  // missed the round deadline: the update never ships
      }

      if (injector_ != nullptr) {
        injector_->corrupt_update(update);
        if (!last_sent[c].empty() &&
            injector_->should_replay_stale(client.id(), received.round)) {
          net_->send(Message{client.id(), kServerNode, last_sent[c]});
        }
      }

      // Upload leg: the update crosses the wire back to the server, encoded
      // against the broadcast this client decoded (the delta basis for
      // lossy codecs; byte-identical v1 for kDense).
      std::vector<std::uint8_t> bytes =
          client.encode_update(update, received.weights);
      if (injector_ != nullptr && injector_->may_replay_stale(client.id())) {
        last_sent[c] = bytes;  // retained only if a replay rule can want it
      }
      if (!net_->send(Message{client.id(), kServerNode, std::move(bytes)})) {
        ++dropped;  // simulated network dropped the upload
      }
    };

    if (ctx_ != nullptr && ctx_->parallel() && sampled.size() > 1) {
      ctx_->count("fl.pool_backed_rounds");
      ctx_->parallel_for(sampled.size(), 1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t k = begin; k < end; ++k) {
                             run_client(sampled[k]);
                           }
                         });
    } else {
      for (const std::size_t c : sampled) run_client(c);
    }

    // Drain the server mailbox; the validator (not the driver) judges what
    // is aggregatable, so corrupted or replayed arrivals reach the server
    // and get counted there.
    std::vector<WeightUpdate> raw;
    raw.reserve(n);
    std::uint64_t bytes_up = 0;
    std::uint64_t logical_up = 0;
    while (std::optional<Message> up = net_->try_receive(kServerNode)) {
      bytes_up += up->bytes.size();
      logical_up += logical_msg_bytes;
      WeightUpdate u = deserialize_update(up->bytes);
      if (known_ids.find(u.client_id) == known_ids.end()) {
        ++dropped;  // update from an unknown sender: skip it
        continue;
      }
      raw.push_back(std::move(u));
    }

    RoundMetrics rm =
        close_round(*server_, round, std::move(raw), reached.load(),
                    seconds_since(round_t0));
    // Only sampled clients trained: report their times, not a vector padded
    // with zeros for clients that were never asked.
    std::vector<double> sampled_seconds;
    sampled_seconds.reserve(sampled.size());
    for (const std::size_t c : sampled) {
      sampled_seconds.push_back(client_seconds[c]);
    }
    rm.max_client_seconds =
        sampled_seconds.empty()
            ? 0.0
            : *std::max_element(sampled_seconds.begin(),
                                sampled_seconds.end());
    rm.dropped_messages = dropped.load();
    rm.population = n;
    rm.sampled_clients = sampled.size();
    if (ctx_ != nullptr) {
      ctx_->count("fl.rejected_updates",
                  static_cast<double>(rm.rejected_updates));
      ctx_->count("fl.late_updates", static_cast<double>(rm.late_updates));
      ctx_->count("fl.timed_out_clients",
                  static_cast<double>(rm.timed_out_clients));
    }
    round_span.annotate("accepted",
                        static_cast<std::uint64_t>(rm.updates_received));
    round_span.annotate("rejected",
                        static_cast<std::uint64_t>(rm.rejected_updates));
    round_span.end();
    if (telemetry_ != nullptr) {
      telemetry_->record(round_telemetry(
          rm, server_->last_audit(), std::move(sampled_seconds),
          bytes_down.load(), bytes_up,
          static_cast<std::uint64_t>(reached.load()) * logical_msg_bytes,
          logical_up));
    }
    result.simulated_parallel_seconds += rm.max_client_seconds;
    result.rounds.push_back(rm);
  }

  result.final_weights = server_->weights();
  result.network = net_->stats();
  result.total_seconds = seconds_since(t0);
  // The TraceWriter only flushes on its own buffering cadence and at
  // destruction; a caller that inspects the trace file right after run()
  // (or aborts before the writer's destructor) would miss the last rounds'
  // spans without an explicit teardown flush.
  if (trace != nullptr) trace->flush();
  return result;
}

ThreadedDriver::ThreadedDriver(Server& server,
                               std::vector<std::unique_ptr<Client>>& clients,
                               InMemoryNetwork& net,
                               const runtime::RunContext* ctx,
                               const faults::FaultInjector* injector,
                               RoundPolicy policy,
                               obs::RoundTelemetrySink* telemetry,
                               const AdversarySuite* adversary)
    : server_(&server),
      clients_(&clients),
      net_(&net),
      ctx_(ctx),
      injector_(injector),
      policy_(policy),
      telemetry_(telemetry),
      adversary_(adversary) {
  EVFL_REQUIRE(!clients.empty(), "ThreadedDriver needs clients");
  if (injector_ != nullptr) net_->set_fault_injector(injector_);
}

FederatedRunResult ThreadedDriver::run(std::size_t rounds) {
  const auto t0 = Clock::now();
  FederatedRunResult result;
  const std::size_t n = clients_->size();
  obs::TraceWriter* trace = ctx_ != nullptr ? ctx_->trace : nullptr;

  ServeOptions serve_opts;
  serve_opts.injector = injector_;
  serve_opts.trace = trace;
  serve_opts.adversary = adversary_;
  // A server that holds a round open until its deadline is healthy: clients
  // must out-wait the deadline (plus slack for aggregation) before deciding
  // the server is gone, or every long round ends the fleet.
  serve_opts.receive_timeout_ms = std::max(serve_opts.receive_timeout_ms,
                                           policy_.round_deadline_ms * 1.25);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (auto& client : *clients_) {
    workers.emplace_back([&client, this, rounds, serve_opts] {
      client->serve(*net_, rounds, serve_opts);
    });
  }

  std::vector<int> ids;
  ids.reserve(n);
  for (const auto& client : *clients_) ids.push_back(client->id());

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto round_t0 = Clock::now();
    const std::uint32_t round = server_->round();
    const std::vector<std::uint8_t>& broadcast_bytes = server_->broadcast_wire();
    const std::uint64_t logical_msg_bytes =
        kWireHeaderBytesV1 + server_->weights().size() * sizeof(float);
    obs::TraceSpan round_span(trace, "fl.round", "fl");
    round_span.annotate("round", static_cast<std::uint64_t>(round));
    round_span.annotate("clients", static_cast<std::uint64_t>(n));
    const std::vector<std::size_t> sampled =
        select_sampled(policy_.sampling, round, ids);
    round_span.annotate("sampled", static_cast<std::uint64_t>(sampled.size()));
    // One shared broadcast buffer for the whole cohort: every sampled
    // client's mailbox references the same refcounted payload, so the
    // round's downlink memory is O(1) in cohort size.
    std::vector<int> cohort;
    cohort.reserve(sampled.size());
    for (const std::size_t c : sampled) cohort.push_back(ids[c]);
    const std::size_t broadcasts_delivered =
        net_->broadcast(kServerNode, cohort, broadcast_bytes);
    const std::size_t round_drops = cohort.size() - broadcasts_delivered;
    const std::uint64_t bytes_down =
        static_cast<std::uint64_t>(broadcasts_delivered) *
        broadcast_bytes.size();

    // Collect until the hard deadline, or earlier once every delivered
    // broadcast has produced a current-round update.  Stale and duplicate
    // arrivals are kept for the validator to count and reject.
    std::vector<WeightUpdate> raw;
    std::unordered_set<int> fresh_senders;
    std::uint64_t bytes_up = 0;
    std::uint64_t logical_up = 0;
    while (fresh_senders.size() < broadcasts_delivered) {
      const double elapsed_ms = seconds_since(round_t0) * 1000.0;
      const double remaining = policy_.round_deadline_ms - elapsed_ms;
      if (remaining <= 0.0) break;
      std::optional<Message> msg = net_->receive(kServerNode, remaining);
      if (!msg) break;
      bytes_up += msg->payload().size();
      logical_up += logical_msg_bytes;
      WeightUpdate u = deserialize_update(msg->payload());
      if (u.round == round) fresh_senders.insert(u.client_id);
      raw.push_back(std::move(u));
    }

    RoundMetrics rm =
        close_round(*server_, round, std::move(raw),
                    broadcasts_delivered, seconds_since(round_t0));
    // Per-client train seconds sampled at round close (sampled cohort only
    // — the others did not train): a client that did not finish this round
    // (crashed / missed broadcast) still reports its previous round's
    // value, so this is a best-effort snapshot in the threaded schedule.
    std::vector<double> client_seconds;
    client_seconds.reserve(sampled.size());
    double max_client_seconds = 0.0;
    for (const std::size_t c : sampled) {
      const double s = (*clients_)[c]->last_train_seconds();
      client_seconds.push_back(s);
      max_client_seconds = std::max(max_client_seconds, s);
    }
    rm.max_client_seconds = max_client_seconds;
    rm.dropped_messages = round_drops;
    rm.population = n;
    rm.sampled_clients = sampled.size();
    round_span.annotate("accepted",
                        static_cast<std::uint64_t>(rm.updates_received));
    round_span.annotate("rejected",
                        static_cast<std::uint64_t>(rm.rejected_updates));
    round_span.end();
    if (telemetry_ != nullptr) {
      telemetry_->record(round_telemetry(
          rm, server_->last_audit(), std::move(client_seconds), bytes_down,
          bytes_up,
          static_cast<std::uint64_t>(broadcasts_delivered) * logical_msg_bytes,
          logical_up));
    }
    result.simulated_parallel_seconds += max_client_seconds;
    result.rounds.push_back(rm);
  }

  // Release clients still waiting on a broadcast (theirs was dropped, or
  // they lag the server after missed rounds): a control-plane shutdown the
  // lossy simulation never drops, so join() is prompt instead of costing a
  // full receive budget per straggling client.
  const std::vector<std::uint8_t> bye =
      serialize(GlobalModel{kShutdownRound, {}});
  for (auto& client : *clients_) {
    net_->send_control(Message{kServerNode, client->id(), bye});
  }
  for (std::thread& w : workers) w.join();

  result.final_weights = server_->weights();
  result.network = net_->stats();
  result.total_seconds = seconds_since(t0);
  // The kShutdownRound teardown ends mid-round from the workers' point of
  // view: without an explicit flush the spans they emitted during the last
  // round can sit in the writer's buffer when the caller reads the file.
  if (trace != nullptr) trace->flush();
  return result;
}

}  // namespace evfl::fl
