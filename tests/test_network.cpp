#include "fl/network.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace evfl::fl {
namespace {

TEST(Network, StatsCountMessagesAndBytes) {
  InMemoryNetwork net;
  EXPECT_TRUE(net.send(100));
  EXPECT_TRUE(net.send(50));
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_sent, 2u);
  EXPECT_EQ(st.bytes_sent, 150u);
  EXPECT_EQ(st.messages_dropped, 0u);
  EXPECT_EQ(st.messages_duplicated, 0u);
}

TEST(Network, DropProbabilityDropsRoughlyThatFraction) {
  NetworkConfig cfg;
  cfg.drop_probability = 0.3;
  cfg.drop_seed = 11;
  InMemoryNetwork net(cfg);
  std::size_t delivered = 0;
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    delivered += net.send(4);
  }
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_sent, n);
  EXPECT_EQ(st.messages_dropped, n - delivered);
  EXPECT_NEAR(static_cast<double>(st.messages_dropped) / n, 0.3, 0.05);
}

TEST(Network, DuplicateDeliveriesChargeWireBytes) {
  // An injected duplicate crosses the wire like any other copy: it costs
  // its bytes again, but it is not a new send and draws no drop decision.
  InMemoryNetwork net;
  net.send(48);  // a broadcast
  net.send(40);  // an update, delivered 1 + 2 times
  net.duplicate(40, 2);
  net.duplicate(40, 0);  // no copies: charges nothing
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.messages_sent, 2u);
  EXPECT_EQ(st.messages_duplicated, 2u);
  EXPECT_EQ(st.bytes_sent, 48u + 3u * 40u);
}

TEST(Network, DropPatternIsDeterministicUnderFixedSeed) {
  const auto delivered_pattern = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.drop_probability = 0.5;
    cfg.drop_seed = seed;
    InMemoryNetwork net(cfg);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(net.send(4));
    return pattern;
  };
  EXPECT_EQ(delivered_pattern(11), delivered_pattern(11));
  EXPECT_NE(delivered_pattern(11), delivered_pattern(12));
}

TEST(Network, ConcurrentSendersDoNotLoseMessages) {
  InMemoryNetwork net;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&net] {
      for (int i = 0; i < kPerThread; ++i) net.send(4);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(net.stats().messages_sent, 4u * kPerThread);
  EXPECT_EQ(net.stats().bytes_sent, 4u * 4u * kPerThread);
}

}  // namespace
}  // namespace evfl::fl
