#include "tensor/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace evfl::tensor {

float Rng::uniform(float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  return dist(engine_);
}

float Rng::normal(float mean, float stddev) {
  std::normal_distribution<float> dist(mean, stddev);
  return dist(engine_);
}

std::size_t Rng::index(std::size_t n) {
  EVFL_REQUIRE(n > 0, "Rng::index needs n > 0");
  std::uniform_int_distribution<std::size_t> dist(0, n - 1);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

namespace {

/// libstdc++'s bernoulli_distribution(p) on a 64-bit engine takes one
/// draw x and returns true iff double(x) / 2^64 < p, the quotient clamped
/// below 1 (generate_canonical<double, 53> with a single draw; the scale
/// by 2^64 is exact).  double(x) never decreases as x grows, so for p < 1
/// that is x < T, T the first 64-bit value whose double reaches p·2^64;
/// p ≥ 1 keeps every draw.  Dropout.MaskMatchesPerElementBernoulli pins
/// the equivalence against the library's own distribution.
std::uint64_t keep_below(double p) {
  const double q = std::ldexp(p, 64);
  // double(2^64 − 1) rounds to 2^64 > q, so T lies in [0, 2^64 − 1].
  std::uint64_t lo = 0, hi = ~std::uint64_t{0};
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) >= q) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

void Rng::bernoulli_select(double p, float on, float off, float* out,
                           std::size_t n) {
  EVFL_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli_select needs p in [0, 1]");
  const bool keep_all = p >= 1.0;
  const std::uint64_t limit = keep_all ? 0 : keep_below(p);
  // Draws come in blocks, so the compare-and-select loop sees plain
  // arrays and vectorizes; the engine still runs once per element.
  constexpr std::size_t kBlock = 64;
  std::uint64_t draws[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t m = std::min(kBlock, n - i);
    for (std::size_t j = 0; j < m; ++j) draws[j] = engine_();
    for (std::size_t j = 0; j < m; ++j) {
      out[i + j] = keep_all || draws[j] < limit ? on : off;
    }
  }
}

float Rng::log_uniform(float lo, float hi) {
  EVFL_REQUIRE(lo > 0.0f && hi >= lo, "log_uniform needs 0 < lo <= hi");
  const float u = uniform(std::log(lo), std::log(hi));
  return std::exp(u);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::shuffle(idx.begin(), idx.end(), engine_);
  return idx;
}

Rng Rng::split() {
  // Consuming two draws decorrelates the child stream from the parent's
  // subsequent output.
  const std::uint64_t a = engine_();
  const std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace evfl::tensor
