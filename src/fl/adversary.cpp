#include "fl/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace evfl::fl {

namespace {

// Adversary choices use the fault layer's stateless decision hash, so they
// share its schedule-independence guarantees.
std::uint64_t member_hash(std::uint64_t seed, int client) {
  std::uint64_t h = splitmix64(seed ^ 0xADEBAD0DEull);
  h = splitmix64(
      h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(client)));
  return h;
}

/// Shared ALIE drift sign for one coordinate: +1/-1 from (seed, coord)
/// only.  No client or round term — every colluder pushes the same
/// persistent direction, so the per-round drifts compound instead of
/// averaging out, and no communication between attackers is needed.
double drift_sign(std::uint64_t seed, std::size_t coord) {
  const std::uint64_t h =
      splitmix64(seed ^ 0xD51F7ull ^ static_cast<std::uint64_t>(coord));
  return (h & 1u) ? 1.0 : -1.0;
}

}  // namespace

std::string to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kSignFlip: return "sign_flip";
    case AttackKind::kAlie: return "alie";
    case AttackKind::kLabelFlip: return "label_flip";
    case AttackKind::kBackdoor: return "backdoor";
  }
  return "unknown";
}

AttackKind parse_attack_kind(const std::string& name) {
  if (name == "none") return AttackKind::kNone;
  if (name == "sign_flip") return AttackKind::kSignFlip;
  if (name == "alie") return AttackKind::kAlie;
  if (name == "label_flip") return AttackKind::kLabelFlip;
  if (name == "backdoor") return AttackKind::kBackdoor;
  throw Error("unknown attack kind: '" + name +
              "' (expected none|sign_flip|alie|label_flip|backdoor)");
}

AdversarySuite::AdversarySuite(AdversaryConfig cfg) : cfg_(std::move(cfg)) {
  EVFL_REQUIRE(cfg_.fraction >= 0.0 && cfg_.fraction <= 1.0,
               "adversary fraction must be in [0, 1]");
  EVFL_REQUIRE(cfg_.norm_budget > 0.0, "norm_budget must be positive");
  EVFL_REQUIRE(cfg_.sign_scale > 0.0, "sign_scale must be positive");
  EVFL_REQUIRE(cfg_.trigger_lo < cfg_.trigger_hi,
               "backdoor trigger zone must be non-empty");
  explicit_members_.insert(cfg_.attackers.begin(), cfg_.attackers.end());
}

bool AdversarySuite::is_attacker(int client_id) const {
  if (cfg_.kind == AttackKind::kNone) return false;
  if (!explicit_members_.empty()) {
    return explicit_members_.count(client_id) != 0;
  }
  if (cfg_.fraction <= 0.0) return false;
  return unit_interval(member_hash(cfg_.seed, client_id)) < cfg_.fraction;
}

bool AdversarySuite::active(int client_id, std::uint32_t round) const {
  return round >= cfg_.round_begin && round <= cfg_.round_end &&
         is_attacker(client_id);
}

bool AdversarySuite::poison_update(WeightUpdate& u,
                                   const std::vector<float>& reference) const {
  if (cfg_.kind != AttackKind::kSignFlip && cfg_.kind != AttackKind::kAlie) {
    return false;  // data-poisoning kinds corrupt training inputs instead
  }
  if (!active(u.client_id, u.round)) return false;
  EVFL_REQUIRE(u.weights.size() == reference.size(),
               "poison_update: reference dimension mismatch");
  const std::size_t dim = u.weights.size();
  if (dim == 0) return false;

  if (cfg_.kind == AttackKind::kSignFlip) {
    // Push the global model backwards, hard: ref - scale * movement.  The
    // movement norm is sign_scale times the honest one, which is exactly
    // what the validator's norm clip exists to bound.
    for (std::size_t i = 0; i < dim; ++i) {
      const double honest = static_cast<double>(u.weights[i]) -
                            static_cast<double>(reference[i]);
      u.weights[i] = static_cast<float>(static_cast<double>(reference[i]) -
                                        cfg_.sign_scale * honest);
    }
    return true;
  }

  // kAlie: discard the honest training result entirely and ship
  // broadcast + drift, with ‖drift‖₂ == norm_budget spread evenly across
  // coordinates.  Per-update this is a small, finite, fresh, in-norm
  // movement — nothing the validator can distinguish from honest noise —
  // but every colluder pushes the identical direction every round, so the
  // mean inherits the full drift scaled only by the attacker fraction.
  const double component =
      cfg_.norm_budget / std::sqrt(static_cast<double>(dim));
  for (std::size_t i = 0; i < dim; ++i) {
    u.weights[i] = static_cast<float>(
        static_cast<double>(reference[i]) +
        drift_sign(cfg_.seed, i) * component);
  }
  return true;
}

std::size_t AdversarySuite::poison_labels(int client_id, std::uint32_t round,
                                          const tensor::Tensor3& x,
                                          tensor::Tensor3& y) const {
  if (cfg_.kind != AttackKind::kLabelFlip &&
      cfg_.kind != AttackKind::kBackdoor) {
    return 0;
  }
  if (!active(client_id, round)) return 0;
  const std::size_t n = y.batch();
  if (n == 0) return 0;

  if (cfg_.kind == AttackKind::kLabelFlip) {
    // Reflect every label within this client's observed range: minima
    // become maxima and vice versa, so the poisoned gradient opposes the
    // honest one while the label distribution's support stays identical.
    float lo = y(0, 0, 0), hi = y(0, 0, 0);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t t = 0; t < y.time(); ++t) {
        for (std::size_t f = 0; f < y.features(); ++f) {
          lo = std::min(lo, y(b, t, f));
          hi = std::max(hi, y(b, t, f));
        }
      }
    }
    const float pivot = lo + hi;
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t t = 0; t < y.time(); ++t) {
        for (std::size_t f = 0; f < y.features(); ++f) {
          y(b, t, f) = pivot - y(b, t, f);
        }
      }
    }
    return n;
  }

  // kBackdoor: relabel only the samples whose mean input sits inside the
  // trigger zone.  The poisoned model stays accurate off-trigger (global
  // R² barely moves) while forecasts inside the zone collapse toward
  // backdoor_value.
  EVFL_REQUIRE(x.batch() == n, "poison_labels: x/y batch mismatch");
  std::size_t poisoned = 0;
  const double denom =
      static_cast<double>(x.time()) * static_cast<double>(x.features());
  for (std::size_t b = 0; b < n; ++b) {
    double acc = 0.0;
    for (std::size_t t = 0; t < x.time(); ++t) {
      for (std::size_t f = 0; f < x.features(); ++f) {
        acc += static_cast<double>(x(b, t, f));
      }
    }
    const double mean = denom > 0.0 ? acc / denom : 0.0;
    if (mean < cfg_.trigger_lo || mean >= cfg_.trigger_hi) continue;
    for (std::size_t t = 0; t < y.time(); ++t) {
      for (std::size_t f = 0; f < y.features(); ++f) {
        y(b, t, f) = cfg_.backdoor_value;
      }
    }
    ++poisoned;
  }
  return poisoned;
}

std::vector<int> AdversarySuite::pick_attackers(double fraction,
                                                std::uint64_t seed,
                                                const std::vector<int>& ids) {
  EVFL_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
               "pick_attackers: fraction must be in [0, 1]");
  const std::size_t count = static_cast<std::size_t>(
      fraction * static_cast<double>(ids.size()));
  std::vector<int> picked = ids;
  // Rank by membership hash (ties by id): the same deterministic-cohort
  // idiom as kFixedSize client sampling.
  std::sort(picked.begin(), picked.end(), [seed](int a, int b) {
    const std::uint64_t ha = member_hash(seed, a);
    const std::uint64_t hb = member_hash(seed, b);
    return ha != hb ? ha < hb : a < b;
  });
  picked.resize(count);
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace evfl::fl
