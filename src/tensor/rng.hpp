// Deterministic random number generation.  Every stochastic component in
// evfl (init, dropout, shuffling, data generation, attack scheduling) pulls
// from an explicitly seeded Rng so experiments replay bit-identically.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace evfl::tensor {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Uniform in [lo, hi).
  float uniform(float lo, float hi);
  /// Standard normal scaled: mean + stddev * N(0,1).
  float normal(float mean = 0.0f, float stddev = 1.0f);
  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n);
  /// Bernoulli with probability p of true.
  bool bernoulli(double p);
  /// out[i] = bernoulli(p) ? on : off for i in [0, n): the same decisions
  /// from the same n draws as n calls of bernoulli(p), made by comparing
  /// each draw with one threshold so the compare and select vectorize.
  /// p must lie in [0, 1].
  void bernoulli_select(double p, float on, float off, float* out,
                        std::size_t n);
  /// Log-uniform in [lo, hi] — multiplier sampling for attack bursts.
  float log_uniform(float lo, float hi);

  /// A shuffled permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator (per client / per component).
  Rng split();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace evfl::tensor
