// FaultInjector — deterministic evaluation of a FaultPlan.
//
// Every decision ("does client 2 crash in round 5?") is a pure function of
// (seed, rule index, client, round): a counter-free hash drives the
// Bernoulli draw, so answers do not depend on thread schedule, call order,
// or how many times a question is asked.  Two runs with the same plan and
// seed inject byte-identical fault sequences — the property the
// reproducibility acceptance tests rely on.
//
// Stats are the one piece of mutable state; they are mutex-protected because
// pool workers (SyncDriver on a pool, FleetDriver's edge workers) consult the
// injector concurrently.
// Drivers consult each decision once per (client, round) so counters equal
// injected-fault counts.
#pragma once

#include <cstdint>
#include <mutex>

#include "faults/fault_plan.hpp"
#include "fl/weights.hpp"

namespace evfl::faults {

struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t straggler_delays = 0;
  std::uint64_t corrupted_updates = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t stale_replays = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0x5eed);

  /// Does `client` crash (after receiving the broadcast, before sending an
  /// update) in `round`?
  bool should_crash(int client, std::uint32_t round) const;

  /// Injected delay before the client's update is sent; 0 when no straggler
  /// rule fires.  Multiple matching rules accumulate.
  double straggler_delay_ms(int client, std::uint32_t round) const;

  /// Damage `update` in place according to the first matching corruption
  /// rule.  Returns true when a corruption was applied.
  bool corrupt_update(fl::WeightUpdate& update) const;

  /// Extra network deliveries of this client's update for this round
  /// (0 = deliver once, normally).
  int duplicate_copies(int client, std::uint32_t round) const;

  /// Should the client re-send its previous round's update alongside the
  /// fresh one?
  bool should_replay_stale(int client, std::uint32_t round) const;

  /// Could any stale-replay rule ever fire for `client` (any round, any
  /// probability)?  Pure plan inspection — no stats, no Bernoulli draw.
  /// Lets senders skip retaining previous payloads when no rule wants them.
  bool may_replay_stale(int client) const;

  FaultStats stats() const;
  void reset_stats();

 private:
  bool decide(std::size_t rule_index, const FaultRule& rule, int client,
              std::uint32_t round) const;

  FaultPlan plan_;
  std::uint64_t seed_;
  mutable std::mutex mutex_;
  mutable FaultStats stats_;
};

}  // namespace evfl::faults
