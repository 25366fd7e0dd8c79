#include "fl/network.hpp"

namespace evfl::fl {

InMemoryNetwork::InMemoryNetwork(NetworkConfig cfg)
    : cfg_(cfg), drop_rng_(cfg.drop_seed) {}

bool InMemoryNetwork::send(std::size_t bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  if (cfg_.drop_probability > 0.0 &&
      drop_rng_.bernoulli(cfg_.drop_probability)) {
    ++stats_.messages_dropped;
    return false;
  }
  return true;
}

void InMemoryNetwork::duplicate(std::size_t bytes, int copies) {
  std::unique_lock<std::mutex> lock(mutex_);
  stats_.messages_duplicated += static_cast<std::uint64_t>(copies);
  stats_.bytes_sent += static_cast<std::uint64_t>(copies) * bytes;
}

NetworkStats InMemoryNetwork::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace evfl::fl
