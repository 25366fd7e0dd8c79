// BoundedQueue — the one bounded queue of the streaming detection pipeline
// (DESIGN.md §14–15): each shard's sample ingest ring and the event export
// queue.  A mutex-guarded ring with explicit back-pressure, following the
// pack/flush/shrink discipline of bounded metric exporters (the
// InfluxStream exemplar, SNIPPETS.md Snippet 1).
//
//  - push() past `max` drops the OLDEST entry and counts it: a live
//    detector must keep the freshest events when the consumer stalls, and
//    the dropped counter makes the loss observable instead of silent.
//  - storage starts at the `shrink` watermark and grows geometrically up
//    to `max` only under bursts; drain() hands everything to the consumer
//    in FIFO order and shrinks storage back to the watermark, so a burst
//    cannot permanently pin its high-water memory.
//  - steady state (bursts that stay within the watermark between drains)
//    neither allocates nor shrinks — the path bench_stream --check-allocs
//    pins.
//
// Thread safety: any number of producers and consumers; a single mutex is
// enough because both operations are O(1)/O(n-memcpy) and the queue is a
// staging buffer, not a work-distribution structure.  Every push and drain
// serializes on that mutex.  A push holds it for one slot write (plus the
// copy into doubled storage when a burst grows the ring); a drain holds it
// for the whole hand-over, O(queued entries) moves plus the watermark
// reallocation after a burst, so producers wait out each drain.  A producer
// preempted inside push() (holding the mutex) delays the other producers
// and the drain until it is rescheduled.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace evfl::stream {

template <typename T>
class BoundedQueue {
 public:
  /// `max` bounds the entry count (drop-oldest beyond it); `shrink` is the
  /// storage watermark drain() returns capacity to.  shrink <= max.
  explicit BoundedQueue(std::size_t max, std::size_t shrink)
      : max_(max), shrink_(shrink) {
    EVFL_REQUIRE(max >= 1, "BoundedQueue needs max >= 1");
    EVFL_REQUIRE(shrink >= 1 && shrink <= max,
                 "BoundedQueue needs 1 <= shrink <= max");
    buf_.resize(shrink_);
  }

  void push(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == max_) {
      // Full at the hard bound: overwrite the oldest slot in place.
      buf_[head_] = std::move(value);
      head_ = next(head_);
      ++dropped_;
      return;
    }
    if (count_ == buf_.size()) grow();
    buf_[index(count_)] = std::move(value);
    ++count_;
  }

  /// Append every queued entry to `out` in arrival order, empty the queue,
  /// and shrink storage back to the watermark if a burst grew it.  Returns
  /// the number of entries handed over.
  std::size_t drain(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = count_;
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(buf_[index(i)]));
    head_ = 0;
    count_ = 0;
    if (buf_.size() > shrink_) {
      std::vector<T> fresh(shrink_);
      buf_.swap(fresh);
    }
    return n;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  /// Entries lost to back-pressure since construction (monotonic).
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Current storage slots (>= size(); watermark after a drain).
  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buf_.size();
  }

 private:
  std::size_t index(std::size_t i) const {
    const std::size_t j = head_ + i;
    return j >= buf_.size() ? j - buf_.size() : j;
  }
  std::size_t next(std::size_t i) const {
    return i + 1 >= buf_.size() ? 0 : i + 1;
  }

  /// Double the ring (capped at max), unwrapping so entry 0 lands at
  /// slot 0 of the fresh storage.
  void grow() {
    std::vector<T> fresh(std::min(buf_.size() * 2, max_));
    for (std::size_t i = 0; i < count_; ++i) fresh[i] = std::move(buf_[index(i)]);
    buf_.swap(fresh);
    head_ = 0;
  }

  const std::size_t max_;
  const std::size_t shrink_;
  mutable std::mutex mutex_;
  std::vector<T> buf_;
  std::size_t head_ = 0;   // slot of the oldest entry
  std::size_t count_ = 0;  // live entries
  std::uint64_t dropped_ = 0;
};

}  // namespace evfl::stream
