#include "fl/network.hpp"

#include "faults/fault_injector.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

InMemoryNetwork::InMemoryNetwork(NetworkConfig cfg)
    : cfg_(cfg), drop_rng_(cfg.drop_seed) {}

void InMemoryNetwork::set_fault_injector(
    const faults::FaultInjector* injector) {
  std::unique_lock<std::mutex> lock(mutex_);
  injector_ = injector;
}

bool InMemoryNetwork::send(Message msg) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.messages_sent;
  stats_.bytes_sent += msg.bytes.size();
  stats_.virtual_latency_ms +=
      cfg_.latency_ms_per_message +
      cfg_.latency_ms_per_kib * (static_cast<double>(msg.bytes.size()) / 1024.0);
  if (cfg_.drop_probability > 0.0 &&
      drop_rng_.bernoulli(cfg_.drop_probability)) {
    ++stats_.messages_dropped;
    return false;
  }
  // Scripted duplicate delivery: a faulty client (or a retransmitting
  // transport) hands the server the same update more than once.  Only
  // client->server WeightUpdates duplicate; broadcasts stay single.  An
  // update whose round differs from the latest broadcast is a stale replay
  // already in flight — it must not consult the duplicate rule a second
  // time, or the "one decision per (client, round)" stats contract breaks.
  int extra_copies = 0;
  if (injector_ != nullptr) {
    if (const std::optional<WirePeek> peek = peek_header(msg.bytes)) {
      if (peek->kind == MessageKind::kGlobalModel) {
        current_round_ = peek->round;
      } else if (msg.to == kServerNode &&
                 peek->kind == MessageKind::kWeightUpdate &&
                 peek->round == current_round_) {
        extra_copies = injector_->duplicate_copies(peek->client, peek->round);
      }
    }
  }
  auto& q = queues_[msg.to];
  for (int i = 0; i < extra_copies; ++i) {
    ++stats_.messages_duplicated;
    // A duplicate crosses the wire like any other copy: it costs its bytes
    // and the size-proportional transfer time again.  Per-message latency
    // is not re-charged — it models connection overhead the retransmitting
    // transport does not repeat.
    stats_.bytes_sent += msg.bytes.size();
    stats_.virtual_latency_ms +=
        cfg_.latency_ms_per_kib *
        (static_cast<double>(msg.bytes.size()) / 1024.0);
    q.push_back(Message{msg.from, msg.to, msg.bytes});
  }
  q.push_back(std::move(msg));
  if (q.size() > stats_.peak_mailbox_depth) {
    stats_.peak_mailbox_depth = q.size();
  }
  return true;
}

std::size_t InMemoryNetwork::broadcast(int from, const std::vector<int>& to,
                                       std::vector<std::uint8_t> bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  // Keep the duplicate-injection round gate in sync, same as send() would.
  if (injector_ != nullptr) {
    if (const std::optional<WirePeek> peek = peek_header(*shared)) {
      if (peek->kind == MessageKind::kGlobalModel) {
        current_round_ = peek->round;
      }
    }
  }
  const std::size_t size = shared->size();
  std::size_t delivered = 0;
  for (const int dest : to) {
    ++stats_.messages_sent;
    stats_.bytes_sent += size;
    stats_.virtual_latency_ms +=
        cfg_.latency_ms_per_message +
        cfg_.latency_ms_per_kib * (static_cast<double>(size) / 1024.0);
    if (cfg_.drop_probability > 0.0 &&
        drop_rng_.bernoulli(cfg_.drop_probability)) {
      ++stats_.messages_dropped;
      continue;
    }
    Message msg;
    msg.from = from;
    msg.to = dest;
    msg.shared = shared;
    auto& q = queues_[dest];
    q.push_back(std::move(msg));
    if (q.size() > stats_.peak_mailbox_depth) {
      stats_.peak_mailbox_depth = q.size();
    }
    ++delivered;
  }
  return delivered;
}

std::optional<Message> InMemoryNetwork::try_receive(int node) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto& q = queues_[node];
  if (q.empty()) return std::nullopt;
  Message msg = std::move(q.front());
  q.pop_front();
  return msg;
}

std::size_t InMemoryNetwork::pending(int node) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = queues_.find(node);
  return it == queues_.end() ? 0 : it->second.size();
}

NetworkStats InMemoryNetwork::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

void InMemoryNetwork::reset_stats() {
  std::unique_lock<std::mutex> lock(mutex_);
  stats_ = NetworkStats{};
}

}  // namespace evfl::fl
