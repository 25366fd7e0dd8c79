// MpscRing — the ingest side of the sharded streaming pipeline
// (DESIGN.md §15): a bounded multi-producer / single-consumer ring that
// generalizes BoundedQueue's contract (drop-oldest past the hard bound
// with an exact counted drop, storage that grows under bursts and shrinks
// back to a watermark on drain) to concurrent producers, with a
// reserve/commit fast path that takes no lock:
//
//  - push() claims a ticket with one CAS on the tail counter, writes its
//    slot, and publishes with one release store of the slot's sequence
//    number — in the common case (ring not full, no buffer swap in
//    flight) that is the entire path: no mutex, no retry loop beyond the
//    claim CAS, wait-free under no contention;
//  - a full ring (or an in-flight buffer swap) diverts the producer to a
//    mutex-guarded slow path that grows the buffer toward `max`, or at
//    `max` consumes the oldest committed entry in the consumer's stead
//    (drop-oldest with an exact count), then retries the fast path;
//  - drain() (single consumer) hands the committed prefix over in ticket
//    order and shrinks storage back to the watermark once the ring is
//    empty, so a burst cannot permanently pin its high-water memory;
//  - buffer swaps (grow/shrink) use a gate: producers register in an
//    in-flight counter before touching the buffer, the swapper sets the
//    gate and waits for that counter to drain, so no producer ever writes
//    a retired buffer.  Steady state (bursts within the watermark) never
//    gates, never locks on push, and never allocates.
//
// Claim-before-full is what makes the protocol deadlock-free: a ticket is
// only issued while `tail - head < capacity` held at the CAS, so a claimed
// slot is always free (or becomes free after a bounded commit-ordering
// window), and nobody ever waits on a producer that is itself blocked.
//
// Thread safety: any number of producers may push() concurrently with one
// drain()er; size()/dropped()/capacity() are safe from any thread
// (size/capacity are instantaneous snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace evfl::stream {

template <typename T>
class MpscRing {
 public:
  /// `max` bounds the entry count (drop-oldest beyond it); `shrink` is the
  /// storage watermark drain() returns capacity to.  8 <= shrink <= max —
  /// the floor keeps the claim window far wider than any realistic
  /// producer count.
  MpscRing(std::size_t max, std::size_t shrink)
      : max_(max), shrink_(shrink) {
    EVFL_REQUIRE(shrink >= 8 && shrink <= max,
                 "MpscRing needs 8 <= shrink <= max");
    storage_ = make_slots(shrink_, 0);
    buf_.store(storage_.get(), std::memory_order_release);
    cap_.store(shrink_, std::memory_order_release);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Enqueue from any producer thread.  Fast path: one CAS + one release
  /// store.  Slow path (full ring / buffer swap): mutex, then grow or
  /// drop-oldest, then retry.
  void push(T value) {
    for (;;) {
      writers_.fetch_add(1, std::memory_order_seq_cst);
      if (!gate_.load(std::memory_order_seq_cst)) {
        Slot* buf = buf_.load(std::memory_order_acquire);
        const std::size_t cap = cap_.load(std::memory_order_acquire);
        std::uint64_t pos = tail_.load(std::memory_order_relaxed);
        // head_pub_ only advances, so a stale read under-counts free slots
        // — the check is conservative, never unsafe.
        while (pos - head_pub_.load(std::memory_order_acquire) < cap) {
          if (tail_.compare_exchange_weak(pos, pos + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
            Slot& s = buf[pos % cap];
            // The claim guarantees the slot's previous lap was consumed;
            // spin only for the consumer's seq store to become visible.
            while (s.seq.load(std::memory_order_acquire) != pos) {
              std::this_thread::yield();
            }
            s.value = std::move(value);
            s.seq.store(pos + 1, std::memory_order_release);
            writers_.fetch_sub(1, std::memory_order_release);
            return;
          }
        }
      }
      writers_.fetch_sub(1, std::memory_order_release);
      std::lock_guard<std::mutex> lock(mutex_);
      make_room_locked();
    }
  }

  /// Append the committed prefix to `out` in ticket (arrival) order, then
  /// shrink storage to the watermark if a burst grew it and the ring is
  /// now empty.  An entry claimed but not yet committed by a preempted
  /// producer stops the drain early (FIFO is never reordered around it);
  /// it is handed over by the next drain.  Single consumer.
  std::size_t drain(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* buf = buf_.load(std::memory_order_relaxed);
    const std::size_t cap = cap_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::size_t n = 0;
    while (head_ != tail) {
      Slot& s = buf[head_ % cap];
      if (s.seq.load(std::memory_order_acquire) != head_ + 1) break;
      out.push_back(std::move(s.value));
      s.seq.store(head_ + cap, std::memory_order_release);
      ++head_;
      ++n;
    }
    head_pub_.store(head_, std::memory_order_release);
    if (cap > shrink_ && head_ == tail_.load(std::memory_order_acquire)) {
      swap_buffer_locked(shrink_);
    }
    return n;
  }

  /// Entries lost to back-pressure since construction (monotonic, exact:
  /// every push is eventually drained or counted here).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_acquire);
  }

  /// Instantaneous entry count (racy snapshot under concurrent pushes).
  std::size_t size() const {
    const std::uint64_t head = head_pub_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  /// Current storage slots (watermark after a drain of a quiet ring).
  std::size_t capacity() const {
    return cap_.load(std::memory_order_acquire);
  }

  std::size_t max_entries() const { return max_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  static std::unique_ptr<Slot[]> make_slots(std::size_t n,
                                            std::uint64_t first_seq) {
    auto slots = std::make_unique<Slot[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i].seq.store(first_seq + i, std::memory_order_relaxed);
    }
    return slots;
  }

  /// Under the mutex: give the caller's retry a chance to succeed — grow
  /// toward `max_` if a burst filled the current buffer, or consume the
  /// oldest committed entry (counted drop) once growth is exhausted.
  /// Either way at least one slot frees; a racing fast-path producer may
  /// still steal it, which the caller's retry loop absorbs.
  void make_room_locked() {
    const std::size_t cap = cap_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (tail - head_ < cap) return;  // a drain already made room
    if (cap < max_) {
      swap_buffer_locked(std::min(cap * 2, max_));
      return;
    }
    // At the hard bound: drop the oldest entry in the consumer's stead.
    Slot* buf = buf_.load(std::memory_order_relaxed);
    Slot& s = buf[head_ % cap];
    // The head entry may belong to a producer mid-commit; it holds no lock
    // and finishes in a bounded number of its own instructions.
    while (s.seq.load(std::memory_order_acquire) != head_ + 1) {
      std::this_thread::yield();
    }
    T discard = std::move(s.value);
    (void)discard;
    s.seq.store(head_ + cap, std::memory_order_release);
    ++head_;
    head_pub_.store(head_, std::memory_order_release);
    dropped_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Swap in a buffer of `new_cap` slots, relocating live entries to
  /// positions [0, count).  Caller holds the mutex.  The gate parks new
  /// producers on the mutex while in-flight ones finish against the old
  /// buffer; with `writers_ == 0` every issued ticket has committed, so
  /// the relocation sees only complete values and may renumber freely.
  /// A shrink is skipped when more than `new_cap` entries are live by
  /// then: fast-path producers can refill the ring between drain()'s
  /// emptiness check and the gate.  A grow always fits (count <= cap).
  void swap_buffer_locked(std::size_t new_cap) {
    gate_.store(true, std::memory_order_seq_cst);
    while (writers_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    Slot* old = buf_.load(std::memory_order_relaxed);
    const std::size_t cap = cap_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t count = tail - head_;
    if (count > new_cap) {
      gate_.store(false, std::memory_order_seq_cst);
      return;
    }
    auto fresh = make_slots(new_cap, 0);
    for (std::uint64_t i = 0; i < count; ++i) {
      fresh[i].value = std::move(old[(head_ + i) % cap].value);
      fresh[i].seq.store(i + 1, std::memory_order_relaxed);
    }
    storage_ = std::move(fresh);
    buf_.store(storage_.get(), std::memory_order_release);
    cap_.store(new_cap, std::memory_order_release);
    head_ = 0;
    head_pub_.store(0, std::memory_order_release);
    tail_.store(count, std::memory_order_release);
    gate_.store(false, std::memory_order_seq_cst);
  }

  const std::size_t max_;
  const std::size_t shrink_;

  std::unique_ptr<Slot[]> storage_;
  std::atomic<Slot*> buf_{nullptr};
  std::atomic<std::size_t> cap_{0};

  std::atomic<std::uint64_t> tail_{0};      // next ticket
  std::uint64_t head_ = 0;                  // consumer/slow-path, under mutex
  std::atomic<std::uint64_t> head_pub_{0};  // head published to producers
  std::atomic<std::uint64_t> dropped_{0};

  std::atomic<std::uint32_t> writers_{0};  // producers touching the buffer
  std::atomic<bool> gate_{false};          // buffer swap in flight
  std::mutex mutex_;                       // slow path + consumer
};

}  // namespace evfl::stream
