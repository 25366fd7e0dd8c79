#include "runtime/workspace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace evfl::runtime {

float* Workspace::borrow(std::size_t n) {
  const std::size_t need =
      (std::max<std::size_t>(n, 1) + kAlignFloats - 1) / kAlignFloats *
      kAlignFloats;

  // Advance to the first block (possibly a fresh one) that can hold the
  // request.  Blocks are never freed or resized, so pointers handed out
  // before this call stay valid.
  while (true) {
    if (block_ < blocks_.size() &&
        offset_ + need <= blocks_[block_].cap) {
      break;
    }
    if (block_ + 1 < blocks_.size()) {
      ++block_;
      offset_ = 0;
      continue;
    }
    const std::size_t last_cap = blocks_.empty() ? 0 : blocks_.back().cap;
    const std::size_t cap =
        std::max({need, 2 * last_cap, kMinBlockFloats});
    // new[] promises only 16 bytes, so the block is carved from one
    // allocation a line larger, starting at its first 64-byte line: every
    // lane then starts on a line.
    Block block{std::make_unique<float[]>(cap + kAlignFloats), nullptr, cap};
    const std::size_t skew =
        reinterpret_cast<std::uintptr_t>(block.storage.get()) %
        (kAlignFloats * sizeof(float)) / sizeof(float);
    block.data = block.storage.get() + (skew == 0 ? 0 : kAlignFloats - skew);
    blocks_.push_back(std::move(block));
    block_ = blocks_.size() - 1;
    offset_ = 0;
    break;
  }

  float* p = blocks_[block_].data + offset_;
  offset_ += need;

  std::size_t in_use = offset_;
  for (std::size_t b = 0; b < block_; ++b) in_use += blocks_[b].cap;
  high_water_ = std::max(high_water_, in_use);
  return p;
}

float* Workspace::borrow_zeroed(std::size_t n) {
  float* p = borrow(n);
  std::memset(p, 0, n * sizeof(float));
  return p;
}

std::size_t Workspace::capacity_floats() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.cap;
  return total;
}

Workspace& thread_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace evfl::runtime
