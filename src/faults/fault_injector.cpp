#include "faults/fault_injector.hpp"

#include <cmath>
#include <limits>

#include "common/hash.hpp"

namespace evfl::faults {

namespace {

// Schedule-independent per-(rule, client, round) decisions.
std::uint64_t decision_hash(std::uint64_t seed, std::size_t rule_index,
                            int client, std::uint32_t round) {
  std::uint64_t h = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  h = splitmix64(h ^ static_cast<std::uint64_t>(rule_index));
  h = splitmix64(
      h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(client)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(round));
  return h;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

bool FaultInjector::decide(std::size_t rule_index, const FaultRule& rule,
                           int client, std::uint32_t round) const {
  if (!rule.matches(client, round)) return false;
  if (rule.probability >= 1.0) return true;
  return unit_interval(decision_hash(seed_, rule_index, client, round)) <
         rule.probability;
}

bool FaultInjector::should_crash(int client, std::uint32_t round) const {
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].kind != FaultKind::kCrash) continue;
    if (decide(i, rules[i], client, round)) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.crashes;
      return true;
    }
  }
  return false;
}

double FaultInjector::straggler_delay_ms(int client,
                                         std::uint32_t round) const {
  double delay = 0.0;
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].kind != FaultKind::kStraggler) continue;
    if (decide(i, rules[i], client, round)) delay += rules[i].delay_ms;
  }
  if (delay > 0.0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.straggler_delays;
  }
  return delay;
}

bool FaultInjector::corrupt_update(fl::WeightUpdate& update) const {
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& rule = rules[i];
    if (rule.kind != FaultKind::kCorrupt) continue;
    if (!decide(i, rule, update.client_id, update.round)) continue;

    std::vector<float>& w = update.weights;
    switch (rule.mode) {
      case CorruptionMode::kNaN: {
        // Poison a deterministic, hash-chosen subset (at least one weight).
        const std::uint64_t h =
            decision_hash(seed_ ^ 0x17u, i, update.client_id, update.round);
        const std::size_t stride = 1 + h % 7;
        for (std::size_t k = 0; k < w.size(); k += stride) {
          w[k] = std::numeric_limits<float>::quiet_NaN();
        }
        break;
      }
      case CorruptionMode::kInf: {
        const std::uint64_t h =
            decision_hash(seed_ ^ 0x2Bu, i, update.client_id, update.round);
        const std::size_t stride = 1 + h % 7;
        for (std::size_t k = 0; k < w.size(); k += stride) {
          w[k] = (k % 2 == 0) ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
        }
        break;
      }
      case CorruptionMode::kNormInflate:
        for (float& v : w) v = static_cast<float>(v * rule.norm_factor);
        break;
      case CorruptionMode::kSignFlip:
        for (float& v : w) v = -v;
        break;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupted_updates;
    return true;
  }
  return false;
}

int FaultInjector::duplicate_copies(int client, std::uint32_t round) const {
  int copies = 0;
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].kind != FaultKind::kDuplicate) continue;
    if (decide(i, rules[i], client, round)) copies += rules[i].extra_copies;
  }
  if (copies > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.duplicated_messages += static_cast<std::uint64_t>(copies);
  }
  return copies;
}

bool FaultInjector::should_replay_stale(int client, std::uint32_t round) const {
  const auto& rules = plan_.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].kind != FaultKind::kStaleReplay) continue;
    if (decide(i, rules[i], client, round)) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.stale_replays;
      return true;
    }
  }
  return false;
}

bool FaultInjector::may_replay_stale(int client) const {
  for (const FaultRule& rule : plan_.rules()) {
    if (rule.kind != FaultKind::kStaleReplay) continue;
    if (rule.client == kAllClients || rule.client == client) return true;
  }
  return false;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void FaultInjector::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = FaultStats{};
}

}  // namespace evfl::faults
