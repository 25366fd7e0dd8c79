#include "fl/network.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {
namespace {

Message msg(int from, int to, std::size_t bytes = 4) {
  Message m;
  m.from = from;
  m.to = to;
  m.bytes.assign(bytes, 0xAB);
  return m;
}

TEST(Network, SendReceiveRoundTrip) {
  InMemoryNetwork net;
  EXPECT_TRUE(net.send(msg(0, 1)));
  EXPECT_EQ(net.pending(1), 1u);
  const auto received = net.try_receive(1);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->from, 0);
  EXPECT_EQ(received->bytes.size(), 4u);
  EXPECT_EQ(net.pending(1), 0u);
}

TEST(Network, FifoPerDestination) {
  InMemoryNetwork net;
  Message a = msg(0, 5);
  a.bytes = {1};
  Message b = msg(0, 5);
  b.bytes = {2};
  net.send(a);
  net.send(b);
  EXPECT_EQ(net.try_receive(5)->bytes[0], 1);
  EXPECT_EQ(net.try_receive(5)->bytes[0], 2);
}

TEST(Network, QueuesAreIsolatedPerNode) {
  InMemoryNetwork net;
  net.send(msg(0, 1));
  EXPECT_FALSE(net.try_receive(2).has_value());
  EXPECT_TRUE(net.try_receive(1).has_value());
}

TEST(Network, StatsCountMessagesAndBytes) {
  InMemoryNetwork net;
  net.send(msg(0, 1, 100));
  net.send(msg(1, 0, 50));
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_sent, 2u);
  EXPECT_EQ(st.bytes_sent, 150u);
  EXPECT_EQ(st.messages_dropped, 0u);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(Network, SimulatedLatencyAccumulates) {
  NetworkConfig cfg;
  cfg.latency_ms_per_message = 5.0;
  cfg.latency_ms_per_kib = 1.0;
  InMemoryNetwork net(cfg);
  net.send(msg(0, 1, 2048));  // 5 + 2 = 7 ms
  net.send(msg(0, 1, 1024));  // 5 + 1 = 6 ms
  EXPECT_NEAR(net.stats().virtual_latency_ms, 13.0, 1e-9);
}

TEST(Network, DropProbabilityDropsRoughlyThatFraction) {
  NetworkConfig cfg;
  cfg.drop_probability = 0.3;
  cfg.drop_seed = 11;
  InMemoryNetwork net(cfg);
  std::size_t delivered = 0;
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    delivered += net.send(msg(0, 1));
  }
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_dropped, n - delivered);
  EXPECT_NEAR(static_cast<double>(st.messages_dropped) / n, 0.3, 0.05);
  EXPECT_EQ(net.pending(1), delivered);
}

TEST(Network, PeakMailboxDepthIsAHighWaterMark) {
  InMemoryNetwork net;
  EXPECT_EQ(net.stats().peak_mailbox_depth, 0u);
  net.send(msg(0, 1));
  net.send(msg(0, 2));
  net.send(msg(0, 1));
  EXPECT_EQ(net.stats().peak_mailbox_depth, 2u);  // node 1 held two at once
  net.try_receive(1);
  net.try_receive(1);
  net.send(msg(0, 1));  // back to depth 1: the peak must not move
  EXPECT_EQ(net.stats().peak_mailbox_depth, 2u);
  net.reset_stats();
  EXPECT_EQ(net.stats().peak_mailbox_depth, 0u);
}

TEST(Network, DuplicateDeliveriesChargeWireBytesAndSizeLatency) {
  // An injected duplicate crosses the wire like any other copy: it must
  // cost its bytes and its size-proportional transfer time.  Per-message
  // latency models connection setup, which a retransmission re-uses — it
  // is charged once per send() call.
  NetworkConfig cfg;
  cfg.latency_ms_per_message = 5.0;
  cfg.latency_ms_per_kib = 1.0;
  InMemoryNetwork net(cfg);
  faults::FaultPlan plan;
  plan.duplicate(/*client=*/1, /*extra_copies=*/2);
  faults::FaultInjector injector(plan);
  net.set_fault_injector(&injector);

  GlobalModel g;
  g.round = 0;
  g.weights = {1.0f, 2.0f};
  const auto bcast = serialize(g);  // establishes the current round
  net.send(Message{kServerNode, 1, bcast});

  WeightUpdate u;
  u.client_id = 1;
  u.round = 0;
  u.weights = {3.0f, 4.0f};
  const auto up = serialize(u);
  net.send(Message{1, kServerNode, up});

  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_sent, 2u);
  EXPECT_EQ(st.messages_duplicated, 2u);
  EXPECT_EQ(net.pending(kServerNode), 3u);  // original + 2 copies queued
  EXPECT_EQ(st.peak_mailbox_depth, 3u);
  EXPECT_EQ(st.bytes_sent, bcast.size() + 3u * up.size());
  const double kib =
      (static_cast<double>(bcast.size()) + 3.0 * up.size()) / 1024.0;
  EXPECT_NEAR(st.virtual_latency_ms, 2 * 5.0 + kib * 1.0, 1e-9);
}

TEST(Network, TryReceiveOnEmptyQueueIsNullopt) {
  InMemoryNetwork net;
  EXPECT_FALSE(net.try_receive(0).has_value());
  // A node that was drained earlier behaves the same as a never-used one.
  net.send(msg(0, 1));
  net.try_receive(1);
  EXPECT_FALSE(net.try_receive(1).has_value());
  EXPECT_EQ(net.pending(1), 0u);
}

TEST(Network, DropPatternIsDeterministicUnderFixedSeed) {
  const auto delivered_pattern = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.drop_probability = 0.5;
    cfg.drop_seed = seed;
    InMemoryNetwork net(cfg);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(net.send(msg(0, 1)));
    return pattern;
  };
  EXPECT_EQ(delivered_pattern(11), delivered_pattern(11));
  EXPECT_NE(delivered_pattern(11), delivered_pattern(12));
}

TEST(Network, InterleavedMultiNodeSendsKeepPerNodeFifo) {
  InMemoryNetwork net;
  for (std::uint8_t i = 0; i < 6; ++i) {
    Message m = msg(0, i % 3);  // round-robin across three nodes
    m.bytes = {i};
    net.send(m);
  }
  // Each node sees only its own messages, in send order.
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(net.try_receive(node)->bytes[0], node);
    EXPECT_EQ(net.try_receive(node)->bytes[0], node + 3);
    EXPECT_FALSE(net.try_receive(node).has_value());
  }
}

TEST(Network, ConcurrentSendersDoNotLoseMessages) {
  InMemoryNetwork net;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&net, t] {
      for (int i = 0; i < kPerThread; ++i) net.send(msg(t, 99));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(net.pending(99), 4u * kPerThread);
}

}  // namespace
}  // namespace evfl::fl
