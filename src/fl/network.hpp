// In-memory simulated network connecting federated participants.
//
// Thread-safe mailbox semantics: send() enqueues a byte message for the
// destination node; try_receive() takes the oldest one, if any.  Pool
// workers receive concurrently, so every call holds the network's mutex.
// Optional per-message simulated latency accumulates into a virtual clock,
// and optional loss probability drops messages — both used by the
// robustness tests and the communication-cost reporting.
//
// An optional FaultInjector adds scripted message-level faults: currently
// duplicate delivery of client updates (the Byzantine "send it twice"
// case), keyed off the (sender, round) visible in the wire header.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tensor/rng.hpp"

namespace evfl::faults {
class FaultInjector;
}  // namespace evfl::faults

namespace evfl::fl {

inline constexpr int kServerNode = -1;

struct Message {
  int from = 0;
  int to = 0;
  std::vector<std::uint8_t> bytes;
  /// Set instead of `bytes` for broadcast deliveries: every recipient of
  /// one broadcast() call shares this single refcounted buffer, so fanning
  /// a model out to 10k clients costs one payload, not 10k copies.
  std::shared_ptr<const std::vector<std::uint8_t>> shared = nullptr;

  /// The payload, wherever it lives.  Readers must use this instead of
  /// touching `bytes` directly.
  const std::vector<std::uint8_t>& payload() const {
    return shared ? *shared : bytes;
  }
};

struct NetworkConfig {
  double latency_ms_per_message = 0.0;
  double latency_ms_per_kib = 0.0;
  double drop_probability = 0.0;
  std::uint64_t drop_seed = 7;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;  // injected duplicate deliveries
  /// Wire bytes that crossed the network, duplicate deliveries included —
  /// a retransmitted update costs its payload again.
  std::uint64_t bytes_sent = 0;
  double virtual_latency_ms = 0.0;  // accumulated simulated transfer time
  /// Deepest any node's mailbox ever got (queued, not yet received) —
  /// backpressure gauge.
  std::uint64_t peak_mailbox_depth = 0;
};

class InMemoryNetwork {
 public:
  explicit InMemoryNetwork(NetworkConfig cfg = {});

  /// Attach (or detach, with nullptr) a fault injector consulted on every
  /// send.  Non-owning; the injector must outlive the network's use of it.
  void set_fault_injector(const faults::FaultInjector* injector);

  /// Enqueue a message for `msg.to`.  Returns false if the (simulated)
  /// network dropped it.
  bool send(Message msg);

  /// Enqueue one payload for many destinations, sharing a single buffer
  /// (see Message::shared).  Each delivery draws its own drop decision and
  /// is charged like an individual send in the traffic stats — the shared
  /// buffer is a simulator memory optimization, not a modeled multicast.
  /// Returns the number of deliveries that were not dropped.
  std::size_t broadcast(int from, const std::vector<int>& to,
                        std::vector<std::uint8_t> bytes);

  /// Take the oldest message queued for a node; std::nullopt when none is.
  std::optional<Message> try_receive(int node);

  /// Number of queued messages for a node.
  std::size_t pending(int node) const;

  NetworkStats stats() const;
  void reset_stats();

 private:
  NetworkConfig cfg_;
  mutable std::mutex mutex_;
  std::unordered_map<int, std::deque<Message>> queues_;
  NetworkStats stats_;
  tensor::Rng drop_rng_;
  const faults::FaultInjector* injector_ = nullptr;
  /// Round of the most recent server broadcast — the wall-clock "current"
  /// round.  Duplicate injection only applies to updates carrying it, so a
  /// stale replay crossing the wire later cannot re-trigger a duplicate
  /// rule from the round it originally belonged to.
  std::uint32_t current_round_ = 0;
};

}  // namespace evfl::fl
