#include "tensor/pool.hpp"

#include <cstdint>
#include <new>
#include <unordered_map>

// Compile the pool out under sanitizers: recycling would blind ASan to
// use-after-free on tensor buffers and hide allocation ordering from TSan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EVFL_TENSOR_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EVFL_TENSOR_POOL_DISABLED 1
#endif
#endif

namespace evfl::tensor {

#ifdef EVFL_TENSOR_POOL_DISABLED

void* pool_allocate(std::size_t bytes) {
  return ::operator new(bytes == 0 ? 1 : bytes);
}
void pool_deallocate(void* p, std::size_t) noexcept { ::operator delete(p); }

#else

namespace {

// Blocks above this size are never parked (a handful of huge pipeline
// buffers must not pin memory forever); buckets are capped so a burst of
// temporaries cannot hoard unbounded storage.
constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;
constexpr std::size_t kMaxBlocksPerBucket = 64;

// Blocks start on a cache line.  operator new promises only 16 bytes, and
// a 16- or 48-byte offset makes every other 32-byte load of a weight row
// straddle two lines: batch-1 predict ran 10-20% slower from one heap
// placement of the same Wh to another.  The block is carved from one
// plain operator new a line larger, so each block is still one counted
// allocation, and the raw pointer is kept in the 16-64 bytes below it.
constexpr std::uintptr_t kLine = 64;

void* line_aligned_new(std::size_t bytes) {
  void* raw = ::operator new(bytes + kLine);
  const std::uintptr_t at =
      (reinterpret_cast<std::uintptr_t>(raw) + kLine) & ~(kLine - 1);
  void** block = reinterpret_cast<void**>(at);
  block[-1] = raw;
  return block;
}

void line_aligned_delete(void* p) noexcept {
  ::operator delete(static_cast<void**>(p)[-1]);
}

struct FreeLists {
  std::unordered_map<std::size_t, std::vector<void*>> buckets;

  ~FreeLists() {
    for (auto& [size, blocks] : buckets) {
      for (void* p : blocks) line_aligned_delete(p);
    }
    buckets.clear();
  }
};

FreeLists& lists() {
  static thread_local FreeLists fl;
  return fl;
}

}  // namespace

void* pool_allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  FreeLists& fl = lists();
  if (bytes <= kMaxPooledBytes) {
    auto it = fl.buckets.find(bytes);
    if (it != fl.buckets.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      return p;
    }
  }
  return line_aligned_new(bytes);
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes <= kMaxPooledBytes) {
    FreeLists& fl = lists();
    std::vector<void*>& bucket = fl.buckets[bytes];
    if (bucket.size() < kMaxBlocksPerBucket) {
      // Growing the bucket vector itself can throw; a full/failed park
      // falls through to a plain free.
      try {
        bucket.push_back(p);
        return;
      } catch (...) {
      }
    }
  }
  line_aligned_delete(p);
}

#endif  // EVFL_TENSOR_POOL_DISABLED

}  // namespace evfl::tensor
