// In-memory simulated network connecting federated participants.
//
// A lossy link: the driver hands every delivered payload straight to its
// recipient, so the network only decides whether each message arrives and
// counts the traffic.  It sees a payload's size, never its bytes.  One
// seeded RNG draws the drop decisions in call order, so a caller that sends
// in a fixed order gets a fixed drop pattern.  Every call holds the
// network's mutex, so stats() is safe to read from another thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "tensor/rng.hpp"

namespace evfl::fl {

struct NetworkConfig {
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
};

class InMemoryNetwork {
 public:
  explicit InMemoryNetwork(NetworkConfig cfg = {});

  /// Charge one message of `bytes` and draw its drop decision.  Returns
  /// false if the (simulated) network dropped it.
  bool send(std::size_t bytes);

  /// Charge `copies` extra deliveries of a delivered `bytes`-sized message:
  /// each duplicate costs its bytes again and is never dropped.
  void duplicate(std::size_t bytes, int copies);

  NetworkStats stats() const;

 private:
  NetworkConfig cfg_;
  mutable std::mutex mutex_;
  NetworkStats stats_;
  tensor::Rng drop_rng_;
};

}  // namespace evfl::fl
