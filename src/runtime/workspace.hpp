// Workspace — a bump-allocated scratch arena for kernel temporaries.
//
// Hot kernels (LSTM BPTT, Dense backward, blocked GEMM drivers) need
// short-lived float buffers every call.  Constructing Matrix temporaries
// for them costs an allocation plus a zero-fill each time; a Workspace
// instead hands out slices of a few long-lived blocks and rewinds to a
// checkpoint when the kernel returns, so the steady state never touches
// the heap.
//
// Lifetime rules (DESIGN.md §8 "Performance model"):
//  - borrow() pointers stay valid until the Workspace is rewound past the
//    checkpoint taken before the borrow — blocks never move or shrink.
//  - Every thread has its own lane (thread_workspace()); borrowing and
//    rewinding are single-threaded by construction.  Other threads may
//    *read* a borrowed buffer inside a parallel_for, but only the owning
//    thread borrows from or rewinds its lane, and the lane must not be
//    rewound while workers still hold the pointer (parallel_for joins
//    before ScratchScope unwinds, which guarantees this).
//  - Holding a borrowed pointer across a return or into another
//    ScratchScope's lifetime is a bug; cache long-lived state in member
//    Matrices instead.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace evfl::runtime {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Borrow `n` floats of uninitialized scratch.  Requests round up to
  /// 16-float (64-byte) lanes, and every lane starts on a cache line, so
  /// consecutive borrows never share one.
  float* borrow(std::size_t n);
  /// Borrow `n` floats and zero them.
  float* borrow_zeroed(std::size_t n);

  /// A rewind point: everything borrowed after mark() is released by
  /// rewind().  Marks nest like a stack — rewind in reverse mark order.
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };
  Mark mark() const { return {block_, offset_}; }
  void rewind(const Mark& m) {
    block_ = m.block;
    offset_ = m.offset;
  }
  void reset() { rewind(Mark{}); }

  /// Total floats reserved across all blocks (monitoring only).
  std::size_t capacity_floats() const;
  /// Largest number of floats ever simultaneously borrowed.
  std::size_t high_water_floats() const { return high_water_; }

 private:
  struct Block {
    std::unique_ptr<float[]> storage;  // cap floats plus one line of slack
    float* data = nullptr;             // first 64-byte line in storage
    std::size_t cap = 0;
  };

  // Floats, not bytes; 64-byte lanes so vectorized kernels never straddle.
  static constexpr std::size_t kAlignFloats = 16;
  static constexpr std::size_t kMinBlockFloats = 1 << 16;  // 256 KiB

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // index of the block being bumped
  std::size_t offset_ = 0;  // floats used within blocks_[block_]
  std::size_t high_water_ = 0;
};

/// RAII checkpoint/rewind: borrows made through (or after constructing)
/// the scope are released when it unwinds — exception-safe.
class ScratchScope {
 public:
  explicit ScratchScope(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
  ~ScratchScope() { ws_.rewind(mark_); }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  float* borrow(std::size_t n) { return ws_.borrow(n); }
  float* borrow_zeroed(std::size_t n) { return ws_.borrow_zeroed(n); }

 private:
  Workspace& ws_;
  Workspace::Mark mark_;
};

/// The calling thread's scratch lane, created on first use.  Thread-pool
/// workers each see their own lane, so kernels running inside a
/// parallel_for body can borrow without synchronization.
Workspace& thread_workspace();

}  // namespace evfl::runtime
