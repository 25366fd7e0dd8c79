#include "datagen/fleet.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "datagen/shenzhen.hpp"
#include "tensor/rng.hpp"

namespace evfl::datagen {

namespace {

/// Multiplicative log-normal jitter with a generic sanity clamp: a drawn
/// factor exp(sigma * z) stays within [1/4x, 4x] of the archetype value.
float jittered(tensor::Rng& rng, double sigma, float value) {
  const double factor =
      std::clamp(std::exp(sigma * static_cast<double>(rng.normal())), 0.25,
                 4.0);
  return static_cast<float>(static_cast<double>(value) * factor);
}

}  // namespace

std::vector<ClientSpec> make_fleet(const FleetConfig& cfg) {
  EVFL_REQUIRE(cfg.clients > 0, "make_fleet: need at least one client");
  EVFL_REQUIRE(cfg.hours >= 48, "make_fleet: base hours must be >= 48");
  const double mix_total = cfg.mix_102 + cfg.mix_105 + cfg.mix_108;
  EVFL_REQUIRE(mix_total > 0.0, "make_fleet: archetype mix sums to zero");
  EVFL_REQUIRE(cfg.jitter >= 0.0 && cfg.hours_jitter >= 0.0 &&
                   cfg.hours_jitter < 1.0,
               "make_fleet: jitter out of range");

  const ZoneProfile archetypes[3] = {zone_102(), zone_105(), zone_108()};
  const double cut_102 = cfg.mix_102 / mix_total;
  const double cut_105 = cut_102 + cfg.mix_105 / mix_total;

  std::vector<ClientSpec> fleet;
  fleet.reserve(cfg.clients);
  for (std::size_t i = 0; i < cfg.clients; ++i) {
    // Per-client sub-seed from (fleet seed, id) alone: the spec for client i
    // never depends on how many other clients exist.
    const std::uint64_t sub_seed =
        splitmix64(cfg.seed ^ splitmix64(static_cast<std::uint64_t>(i)));
    tensor::Rng rng(sub_seed);

    ClientSpec spec;
    spec.id = static_cast<int>(i);
    const double pick = static_cast<double>(rng.uniform(0.0f, 1.0f));
    spec.archetype = pick < cut_102 ? 0 : (pick < cut_105 ? 1 : 2);
    ZoneProfile p = archetypes[spec.archetype];

    const double s = cfg.jitter;
    p.base_load = jittered(rng, s, p.base_load);
    p.morning_peak_amp = jittered(rng, s, p.morning_peak_amp);
    p.evening_peak_amp = jittered(rng, s, p.evening_peak_amp);
    p.overnight_dip = jittered(rng, s, p.overnight_dip);
    p.weekly_wave_amp = jittered(rng, s, p.weekly_wave_amp);
    p.seasonal_drift_amp = jittered(rng, s, p.seasonal_drift_amp);
    p.noise_std = jittered(rng, s, p.noise_std);
    p.spike_scale = jittered(rng, s, p.spike_scale);
    // Parameters with hard semantic ranges get their own clamps.
    p.weekend_factor =
        std::clamp(jittered(rng, s, p.weekend_factor), 0.5f, 1.2f);
    p.ar_coeff = std::clamp(jittered(rng, s, p.ar_coeff), 0.0f, 0.95f);
    p.spike_prob = std::clamp(jittered(rng, s, p.spike_prob), 0.0f, 0.05f);
    p.spike_persistence =
        std::clamp(jittered(rng, s, p.spike_persistence), 0.0f, 0.9f);
    p.zone_id += "-c" + std::to_string(i);
    spec.profile = p;

    // Heterogeneous sample counts: hours in [base*(1-j), base*(1+j)].
    const double span = cfg.hours_jitter * static_cast<double>(cfg.hours);
    const double jittered_hours =
        static_cast<double>(cfg.hours) +
        static_cast<double>(rng.uniform(-1.0f, 1.0f)) * span;
    spec.hours = std::max<std::size_t>(
        48, static_cast<std::size_t>(std::llround(jittered_hours)));
    spec.start_weekday = cfg.start_weekday;
    spec.series_seed = splitmix64(sub_seed ^ 0xA5A5A5A55A5A5A5Aull);
    fleet.push_back(std::move(spec));
  }
  return fleet;
}

data::TimeSeries materialize_series(const ClientSpec& spec) {
  GeneratorConfig gen;
  gen.hours = spec.hours;
  gen.start_weekday = spec.start_weekday;
  gen.seed = spec.series_seed;
  tensor::Rng rng(spec.series_seed);
  return generate_zone(spec.profile, gen, rng);
}

}  // namespace evfl::datagen
