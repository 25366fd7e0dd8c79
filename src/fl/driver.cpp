#include "fl/driver.hpp"

#include <algorithm>
#include <chrono>

#include "common/hash.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

double sampling_hash01(std::uint64_t seed, std::uint32_t round,
                       int client_id) {
  const std::uint64_t id_bits =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(client_id));
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ (static_cast<std::uint64_t>(round) << 32)) ^ id_bits);
  return unit_interval(h);
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

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const runtime::RunContext kSerial{};

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

Driver::Driver(Aggregator& root, RoundPolicy policy,
               const runtime::RunContext* ctx,
               const faults::FaultInjector* injector,
               obs::RoundTelemetrySink* telemetry,
               const AdversarySuite* adversary)
    : root_(&root),
      policy_(policy),
      ctx_(ctx != nullptr ? ctx : &kSerial),
      injector_(injector),
      telemetry_(telemetry),
      adversary_(adversary) {}

StepOptions Driver::step_options() const {
  return StepOptions{injector_, ctx_->trace, adversary_,
                     policy_.round_deadline_ms};
}

void Driver::add_audit(RoundAudit& into, const RoundAudit& from) {
  into.accepted += from.accepted;
  into.rejected_nonfinite += from.rejected_nonfinite;
  into.rejected_stale += from.rejected_stale;
  into.rejected_duplicate += from.rejected_duplicate;
  into.rejected_dimension += from.rejected_dimension;
  into.clipped += from.clipped;
  into.clipped_aggregates += from.clipped_aggregates;
}

FederatedRunResult Driver::run(std::size_t rounds) {
  const Clock::time_point t0 = Clock::now();
  obs::TraceWriter* trace = ctx_->trace;
  // Dense-equivalent size of one message: the "logical" cost an
  // uncompressed v1 exchange would have paid.
  const std::uint64_t logical_msg =
      kWireHeaderBytesV1 + root_->weights().size() * sizeof(float);
  FederatedRunResult result;
  result.rounds.reserve(rounds);
  NetworkStats tally;

  for (std::size_t r = 0; r < rounds; ++r) {
    const Clock::time_point round_t0 = Clock::now();
    const std::uint32_t round = root_->round();
    // Unsampled clients never see the broadcast this round: no message, no
    // training, no timeout accounting.
    const std::vector<std::size_t> cohort =
        select_sampled(policy_.sampling, round, ids_);
    obs::TraceSpan round_span(trace, "fl.round", "fl");
    round_span.annotate("round", static_cast<std::uint64_t>(round));
    round_span.annotate("clients", static_cast<std::uint64_t>(ids_.size()));
    round_span.annotate("sampled", static_cast<std::uint64_t>(cohort.size()));

    Exchange ex = exchange(round, cohort);

    RoundMetrics rm;
    rm.weight_delta = root_->close_round();
    RoundAudit audit = root_->last_audit();
    if (ex.edges) {
      // Leaves were judged at their edge: count their acceptances, and the
      // rejections and clips of both tiers.
      audit.accepted = 0;
      add_audit(audit, *ex.edges);
    }
    rm.round = round;
    rm.mean_train_loss = ex.mean_train_loss;
    rm.updates_received = audit.accepted;
    rm.wall_seconds = seconds_since(round_t0);
    for (const double s : ex.client_seconds) {
      rm.max_client_seconds = std::max(rm.max_client_seconds, s);
    }
    rm.dropped_messages = ex.dropped;
    rm.rejected_updates = audit.rejected_nonfinite + audit.rejected_duplicate +
                          audit.rejected_dimension;
    rm.late_updates = audit.rejected_stale;
    rm.timed_out_clients = ex.reached > ex.fresh ? ex.reached - ex.fresh : 0;
    rm.population = ids_.size();
    rm.sampled_clients = cohort.size();

    ctx_->count("fl.rejected_updates",
                static_cast<double>(rm.rejected_updates));
    ctx_->count("fl.late_updates", static_cast<double>(rm.late_updates));
    ctx_->count("fl.timed_out_clients",
                static_cast<double>(rm.timed_out_clients));
    round_span.annotate("accepted",
                        static_cast<std::uint64_t>(rm.updates_received));
    round_span.annotate("rejected",
                        static_cast<std::uint64_t>(rm.rejected_updates));
    round_span.end();

    if (telemetry_ != nullptr) {
      obs::RoundTelemetry rt;
      rt.round = rm.round;
      rt.wall_seconds = rm.wall_seconds;
      rt.max_client_seconds = rm.max_client_seconds;
      rt.client_train_seconds = std::move(ex.client_seconds);
      rt.bytes_down = ex.bytes_down;
      rt.bytes_up = ex.bytes_up;
      rt.logical_bytes_down = ex.messages_down * logical_msg;
      rt.logical_bytes_up = ex.messages_up * logical_msg;
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
      telemetry_->record(std::move(rt));
    }

    tally.messages_sent += ex.messages_down + ex.messages_up;
    tally.messages_dropped += ex.dropped;
    tally.bytes_sent += ex.bytes_down + ex.bytes_up;
    // A round closes at its deadline, so a straggler past it adds only the
    // deadline, not its whole delay.
    result.simulated_parallel_seconds +=
        std::min(rm.max_client_seconds,
                 std::max(0.0, policy_.round_deadline_ms / 1000.0));
    result.rounds.push_back(rm);
  }

  result.final_weights = root_->weights();
  result.network = traffic(tally);
  result.total_seconds = seconds_since(t0);
  // The TraceWriter only flushes on its own buffering cadence and at
  // destruction; a caller that inspects the trace file right after run()
  // (or aborts before the writer's destructor) would miss the last rounds'
  // spans without a teardown flush.
  if (trace != nullptr) trace->flush();
  return result;
}

SyncDriver::SyncDriver(Server& server,
                       std::vector<std::unique_ptr<Client>>& clients,
                       InMemoryNetwork& net, const runtime::RunContext* ctx,
                       const faults::FaultInjector* injector,
                       RoundPolicy policy, obs::RoundTelemetrySink* telemetry,
                       const AdversarySuite* adversary)
    : Driver(server, policy, ctx, injector, telemetry, adversary),
      clients_(&clients),
      net_(&net) {
  EVFL_REQUIRE(!clients.empty(), "a federated driver needs clients");
  for (const auto& client : clients) ids_.push_back(client->id());
  known_.insert(ids_.begin(), ids_.end());
}

NetworkStats SyncDriver::traffic(const NetworkStats& /*tally*/) const {
  return net_->stats();
}

Driver::Exchange SyncDriver::exchange(std::uint32_t round,
                                      const std::vector<std::size_t>& cohort) {
  Exchange ex;
  // One wire encoding per round (codec-aware) and one decode: every member
  // the link reaches gets these same bytes.  The drop decisions are drawn
  // before dispatch, in cohort order, and no pool task touches the network.
  const std::vector<std::uint8_t>& wire = root_->broadcast_wire();
  std::vector<bool> reached(cohort.size());
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    reached[k] = net_->send(wire.size());
    if (reached[k]) ++ex.reached;
  }
  ex.dropped = cohort.size() - ex.reached;
  ex.messages_down = ex.reached;
  ex.bytes_down = static_cast<std::uint64_t>(ex.reached) * wire.size();

  const GlobalModel global = deserialize_global(wire);
  std::vector<StepResult> out(cohort.size());
  const StepOptions step = step_options();
  ctx_->parallel_for(cohort.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (reached[k]) {
        out[k] = (*clients_)[cohort[k]]->participate(global, step);
      }
    }
  });

  // Uploads cross the link after the barrier, in cohort order, so neither
  // its drop decisions nor the injector's duplicate decisions depend on the
  // schedule.  Each delivered payload is decoded at the root at once; an
  // update from an unknown sender is skipped and counted as dropped.
  std::vector<WeightUpdate> raw;
  raw.reserve(cohort.size());
  const auto deliver = [&](const std::vector<std::uint8_t>& bytes) {
    ex.bytes_up += bytes.size();
    ++ex.messages_up;
    WeightUpdate u = deserialize_update(bytes);
    if (known_.count(u.client_id) == 0) {
      ++ex.dropped;
      return;
    }
    raw.push_back(std::move(u));
  };
  ex.client_seconds.resize(cohort.size());
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    const int id = ids_[cohort[k]];
    ex.client_seconds[k] = out[k].seconds;
    // A stale replay never consults the duplicate rule: its decision was
    // made in the round it belongs to, once per (client, round).
    if (!out[k].stale.empty() && net_->send(out[k].stale.size())) {
      deliver(out[k].stale);
    }
    if (out[k].upload == nullptr) continue;
    const std::vector<std::uint8_t>& upload = *out[k].upload;
    if (!net_->send(upload.size())) {
      ++ex.dropped;  // simulated network dropped the upload
      continue;
    }
    // Scripted duplicate delivery: a faulty client (or a retransmitting
    // transport) hands the root the same update more than once.
    const int copies =
        injector_ != nullptr ? injector_->duplicate_copies(id, round) : 0;
    net_->duplicate(upload.size(), copies);
    for (int c = 0; c <= copies; ++c) deliver(upload);
  }

  // The mean loss is a health signal over every arrival, corrupted or stale
  // ones included.  Only a current-round update counts as a contribution: a
  // stale replay's sender still timed out on this round.
  double loss = 0.0;
  std::unordered_set<int> fresh;
  for (const WeightUpdate& u : raw) {
    loss += u.train_loss;
    if (u.round == round) fresh.insert(u.client_id);
  }
  ex.mean_train_loss =
      raw.empty() ? 0.0f : static_cast<float>(loss / raw.size());
  ex.fresh = fresh.size();
  // Deterministic aggregation order whatever the arrival schedule: stable
  // sort by client id (duplicates stay adjacent, first arrival first).  The
  // validator, not the driver, judges what is aggregatable.
  std::stable_sort(raw.begin(), raw.end(),
                   [](const WeightUpdate& a, const WeightUpdate& b) {
                     return a.client_id < b.client_id;
                   });
  for (WeightUpdate& u : raw) root_->offer(std::move(u));
  return ex;
}

}  // namespace evfl::fl
