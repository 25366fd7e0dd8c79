// Thread-local recycling pool for tensor storage.
//
// Matrix and Tensor3 back their float buffers with PoolAllocator: freed
// blocks park in a per-thread, size-bucketed free list instead of going
// back to the heap, and a later allocation of the same byte size is a
// pointer pop.  Training loops cycle through a fixed set of shapes, so
// after one warm-up step every temporary (forward outputs, gradients,
// mini-batch gathers) is a pool hit and the steady state performs zero
// heap allocations — the property bench_lstm_kernels pins.  Every block
// starts on a 64-byte cache line, so a weight row's alignment, and with it
// the GEMM's count of line-splitting loads, does not depend on where the
// heap happened to place it.
//
// The pool is invisible to callers: allocator instances are stateless and
// always equal, so vector copy/move semantics are unchanged.  Blocks freed
// on a different thread than they were allocated on simply park in the
// freeing thread's pool (ownership transfers; no cross-thread races).
// Each pool is torn down at thread exit, returning every parked block to
// the heap, so sanitizer leak checks stay clean.  Under ASan/TSan the pool
// compiles to plain operator new/delete so the sanitizers keep full
// visibility into buffer lifetimes.
#pragma once

#include <cstddef>
#include <vector>

namespace evfl::tensor {

/// Allocate `bytes` from the calling thread's pool (exact-size bucket hit)
/// or the heap on a miss.
void* pool_allocate(std::size_t bytes);
/// Return a block to the calling thread's pool (or the heap if the bucket
/// is full or the block is oversized).
void pool_deallocate(void* p, std::size_t bytes) noexcept;

template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_deallocate(p, n * sizeof(T));
  }
};

template <typename T, typename U>
bool operator==(const PoolAllocator<T>&, const PoolAllocator<U>&) {
  return true;
}
template <typename T, typename U>
bool operator!=(const PoolAllocator<T>&, const PoolAllocator<U>&) {
  return false;
}

/// The storage type behind Matrix and Tensor3.
using FloatVec = std::vector<float, PoolAllocator<float>>;

/// Size `v` to n floats for a reshape: keep the storage when n fits in it,
/// allocate exactly n when it does not (a block of the largest size the
/// buffer has held, never resize's doubling).  Elements past the old size
/// come out zero; the rest keep their values.
inline void reshape_storage(FloatVec& v, std::size_t n) {
  if (n > v.capacity()) {
    v.clear();
    v.reserve(n);
  }
  v.resize(n);
}

}  // namespace evfl::tensor
