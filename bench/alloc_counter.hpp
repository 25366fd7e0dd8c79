// Counting global allocation functions for the benches that gate heap
// traffic.  Linking the evfl_alloc_counter object library replaces every
// global operator new/delete, so each heap allocation is visible; sample
// alloc_now() around the measured region only.
#pragma once

#include <cstdint>

namespace evfl::bench {

struct AllocCount {
  std::uint64_t count = 0;  // operator new calls, nothrow forms included
  std::uint64_t bytes = 0;  // bytes requested by the throwing forms
};

/// Allocations since process start.
AllocCount alloc_now();

}  // namespace evfl::bench
