// Stateless decision hashing shared by every seeded per-(client, round,
// coordinate, ...) choice: fault injection, adversary membership, client
// sampling, fleet generation and threshold reservoir slots.  A decision is a
// pure function of its key, so it does not depend on thread schedule or on
// how many other decisions were made before it.
#pragma once

#include <cstdint>

namespace evfl {

/// splitmix64 finalizer: cheap, well mixed, stateless.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The top 53 bits of `h` as a double in [0, 1).
inline double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace evfl
