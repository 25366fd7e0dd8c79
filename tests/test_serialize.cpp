#include "fl/serialize.hpp"

#include <gtest/gtest.h>

#include <random>

#include "common/error.hpp"

namespace evfl::fl {
namespace {

WeightUpdate sample_update() {
  WeightUpdate u;
  u.client_id = 2;
  u.round = 7;
  u.sample_count = 3456;
  u.train_loss = 0.0123f;
  u.weights = {1.0f, -2.5f, 0.0f, 3.14159f};
  return u;
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, StandardCheckValues) {
  const auto crc_of = [](const char* s) {
    return crc32(reinterpret_cast<const std::uint8_t*>(s),
                 std::char_traits<char>::length(s));
  };
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("abc"), 0x352441C2u);
  EXPECT_EQ(crc_of("message digest"), 0x20159D7Fu);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

/// Pre-slicing byte-at-a-time CRC-32 (reflected, poly 0xEDB88320) — the
/// implementation this module shipped before the slice-by-8 rewrite, kept
/// as the oracle the fast path is pinned against.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewiseOracleAcrossSizesAndOffsets) {
  std::mt19937 rng(99);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  // Sweep lengths around the 8-byte chunk boundary plus unaligned starts:
  // slicing bugs live exactly at chunk edges and odd alignments.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{255},
        std::size_t{1021}, std::size_t{4096}}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      EXPECT_EQ(crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "len=" << len << " offset=" << offset;
    }
  }
}

TEST(Serialize, UpdateRoundTrip) {
  const WeightUpdate u = sample_update();
  const auto bytes = serialize(u);
  const WeightUpdate back = deserialize_update(bytes);
  EXPECT_EQ(back.client_id, u.client_id);
  EXPECT_EQ(back.round, u.round);
  EXPECT_EQ(back.sample_count, u.sample_count);
  EXPECT_FLOAT_EQ(back.train_loss, u.train_loss);
  EXPECT_EQ(back.weights, u.weights);
}

TEST(Serialize, GlobalRoundTrip) {
  GlobalModel g;
  g.round = 4;
  g.weights = {0.5f, 0.25f};
  const auto bytes = serialize(g);
  const GlobalModel back = deserialize_global(bytes);
  EXPECT_EQ(back.round, 4u);
  EXPECT_EQ(back.weights, g.weights);
}

TEST(Serialize, KindConfusionRejected) {
  const auto update_bytes = serialize(sample_update());
  EXPECT_THROW(deserialize_global(update_bytes), FormatError);
  GlobalModel g;
  g.weights = {1.0f};
  EXPECT_THROW(deserialize_update(serialize(g)), FormatError);
}

TEST(Serialize, CorruptedPayloadDetectedByCrc) {
  auto bytes = serialize(sample_update());
  bytes[bytes.size() - 2] ^= 0xFF;  // flip bits inside the float payload
  EXPECT_THROW(deserialize_update(bytes), FormatError);
}

TEST(Serialize, CorruptedMagicRejected) {
  auto bytes = serialize(sample_update());
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_update(bytes), FormatError);
}

TEST(Serialize, TruncationRejected) {
  const auto bytes = serialize(sample_update());
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{10},
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> partial(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(deserialize_update(partial), FormatError) << "cut=" << cut;
  }
}

TEST(Serialize, UnsupportedVersionRejected) {
  auto bytes = serialize(sample_update());
  bytes[4] = 0x77;  // version lives right after the 4-byte magic
  EXPECT_THROW(deserialize_update(bytes), FormatError);
}

TEST(Serialize, EmptyWeightsRoundTrip) {
  WeightUpdate u;
  u.client_id = 0;
  u.weights = {};
  const WeightUpdate back = deserialize_update(serialize(u));
  EXPECT_TRUE(back.weights.empty());
}

TEST(Serialize, RandomMutationsNeverCrashOnlyThrowOrReject) {
  // Fuzz-ish: single-byte mutations of a valid message must either decode
  // to *something* (mutations inside float payload bytes can cancel out in
  // CRC only if they don't change it — effectively impossible for single
  // bytes, but mutations of the loss field are CRC-exempt) or throw
  // FormatError.  They must never crash or hang.
  const auto bytes = serialize(sample_update());
  std::mt19937 rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = bytes;
    const std::size_t pos = rng() % mutated.size();
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    try {
      const WeightUpdate u = deserialize_update(mutated);
      // Decoded despite mutation: only header fields outside magic /
      // version / kind / count / crc / payload can differ (round, client,
      // samples, loss) — the weights must still be intact.
      EXPECT_EQ(u.weights, sample_update().weights);
    } catch (const FormatError&) {
      // rejected — fine
    }
  }
}

TEST(Serialize, RandomTruncationsNeverCrash) {
  const auto bytes = serialize(sample_update());
  std::mt19937 rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng() % bytes.size();
    std::vector<std::uint8_t> partial(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(deserialize_update(partial), FormatError);
  }
}

TEST(Serialize, PayloadSizeIsHeaderPlusFloats) {
  const WeightUpdate u = sample_update();
  const auto bytes = serialize(u);
  // magic 4 + version 2 + kind 2 + round 4 + client 4 + samples 8 + loss 4
  // + count 8 + crc 4 = 40 header bytes.
  EXPECT_EQ(bytes.size(), 40u + u.weights.size() * sizeof(float));
}

}  // namespace
}  // namespace evfl::fl
