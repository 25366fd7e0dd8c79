// RunContext — the execution-context handle threaded through every layer
// that can exploit parallelism (tensor kernels, trainer evaluation, the
// data pipeline, the federated drivers).
//
// Ownership rules: a RunContext is a non-owning view.  Whoever builds the
// ThreadPool / obs::Registry / TraceWriter (a ScenarioRunner, a bench main,
// a test) keeps them alive for as long as any RunContext pointing at them
// is in use.  A default-constructed RunContext (or a nullptr where one is
// optional) means "serial, uncounted, untraced" and is always valid.
//
// Determinism contract: parallel code paths must produce bit-identical
// results to the serial path.  The two mechanisms are (a) pre-splitting
// RNGs in serial order via split_rngs() before dispatching work, and
// (b) keeping per-element floating-point accumulation order fixed (row
// partitions reduce in-place; batch partitions reduce in index order).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace evfl::runtime {

struct RunContext {
  ThreadPool* pool = nullptr;           // nullptr -> serial execution
  obs::Registry* registry = nullptr;    // nullptr -> count() is a no-op
  // Optional trace sink: spans created through span() (and by the stages
  // that consult `trace` directly) record into it.  nullptr -> no tracing.
  obs::TraceWriter* trace = nullptr;

  std::size_t concurrency() const { return pool ? pool->concurrency() : 1; }
  bool parallel() const { return concurrency() > 1; }

  /// Pool-backed parallel_for when a pool with workers is attached;
  /// otherwise one serial body(0, total) call.
  void parallel_for(
      std::size_t total, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& body) const;

  /// Chunk size that yields ~4 chunks per thread over `total` items —
  /// enough slack to absorb uneven chunk cost without drowning in dispatch.
  std::size_t grain_for(std::size_t total) const;

  /// Add `amount` to the registry's counter `name`.
  void count(const char* name, double amount = 1.0) const {
    if (registry != nullptr) registry->counter(name).add(amount);
  }

  /// RAII trace span recording into the attached writer; inert when no
  /// writer is attached (or tracing is compiled out).
  obs::TraceSpan span(const char* name, const char* cat = "evfl") const {
    return obs::TraceSpan(trace, name, cat);
  }
};

/// Derive `n` child generators from `root` by sequential splitting — the
/// order is fixed before any work is dispatched, so parallel consumers get
/// the exact streams the serial loop would have drawn regardless of
/// execution schedule.
std::vector<tensor::Rng> split_rngs(tensor::Rng& root, std::size_t n);

}  // namespace evfl::runtime
