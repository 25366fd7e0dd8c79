// Wire format for federated messages.
//
// Every parameter exchange crosses this byte boundary even when server and
// clients share a process: it keeps the "only model parameters are
// exchanged" property enforceable and testable, and gives the communication
// metrics real payload sizes.
//
// Two wire versions coexist (decoders accept both):
//
// v1 — dense fp32, the lossless default (little-endian):
//   magic   u32  'EVFL' (0x4C465645)
//   version u16  = 1
//   kind    u16  (1 = WeightUpdate, 2 = GlobalModel)
//   round   u32
//   client  i32  (-1 for GlobalModel)
//   samples u64
//   loss    f32
//   count   u64  (number of float weights)
//   crc32   u32  (over the weight payload bytes)
//   payload count * f32
//
// v2 — compressed payloads (see fl/codec.hpp for the codec semantics).  The
// header shares the v1 prefix through `client`:
//   magic   u32  'EVFL'
//   version u16  = 2
//   kind    u16
//   round   u32
//   client  i32
//   samples u64
//   loss    f32
//   codec      u8   (CodecKind)
//   quant_bits u8   (0 unless the codec quantizes; else 4 or 8)
//   agg_leaves u16  (saturated count of leaves behind a forwarded aggregate
//                    *mean* — a robust shard reduction, or an exact shard
//                    mean shipped through a lossy upstream codec; 0 for leaf
//                    updates, broadcasts, and kAggSum, whose exact count
//                    rides in the payload.  Nonzero outside a non-kAggSum
//                    WeightUpdate is rejected.)
//   dim     u64  (logical weight count of the decoded vector)
//   nnz     u64  (entries on the wire; == dim for dense codecs)
//   crc32   u32  (over the payload bytes)
//   payload — by codec:
//     kDelta:     nnz * f32 delta values (nnz == dim)
//     kTopK:      nnz * u32 strictly-increasing indices, then nnz * f32
//     kTopKQuant: nnz * u32 indices, ceil(nnz/256) * f32 block scales,
//                 then nnz packed signed quant_bits-wide values
//     kQuantDense:ceil(dim/256) * f32 block scales, then dim packed values
//     kAggSum:    u64 contributors, u64 total_weight, then dim * i128
//                 fixed-point partial sums (two u64 words each, low first,
//                 two's complement).  nnz == dim; `samples` in the header is
//                 the shard's cumulative sample count, `loss` its weighted
//                 mean train loss.  Decodes into WeightUpdate::agg_terms
//                 plus a float mean view in `weights` so validator rules
//                 (dimension, norm) still apply.
//
// Decoders throw evfl::FormatError on bad magic/version/kind/codec/CRC/
// size.  v2 delta payloads decode into WeightUpdate::weights with
// is_delta = true — materialized dense, so the validator's non-finite /
// dimension / movement-norm rules always run on the decoded update.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/weights.hpp"

namespace evfl::fl {

inline constexpr std::uint32_t kWireMagic = 0x4C465645;  // "EVFL"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::uint16_t kWireVersion2 = 2;

/// Fixed header sizes (bytes) — what the dense-equivalent "logical bytes"
/// telemetry and the size-formula tests count with.
inline constexpr std::size_t kWireHeaderBytesV1 = 40;
inline constexpr std::size_t kWireHeaderBytesV2 = 52;

/// Upper bound on the logical weight count a decoder will materialize.  The
/// CRC covers only the payload, so a corrupted v2 `dim` field could
/// otherwise demand an arbitrarily large dense allocation before any
/// integrity check can fail.
inline constexpr std::uint64_t kMaxWireDim = 1ull << 28;  // 1 GiB of fp32

enum class MessageKind : std::uint16_t {
  kWeightUpdate = 1,
  kGlobalModel = 2,
};

/// CRC-32 (IEEE 802.3, reflected) of a byte buffer.  Slice-by-8: processes
/// eight bytes per table round instead of one — the checksum runs over
/// every payload twice per message (sender and receiver), so it is on the
/// wire hot path.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

std::vector<std::uint8_t> serialize(const WeightUpdate& update);
std::vector<std::uint8_t> serialize(const GlobalModel& model);

/// Buffer-reusing variants (v1 layout): `out` is cleared, then filled; its
/// capacity is retained across calls so steady-state serialization does not
/// allocate.
void serialize_into(const WeightUpdate& update, std::vector<std::uint8_t>& out);
void serialize_into(const GlobalModel& model, std::vector<std::uint8_t>& out);

/// Serialize an edge aggregator's exact partial sum as a v2 kAggSum update
/// (buffer-reusing).  `terms` are the accumulator's raw fixed-point sums,
/// `total_weight` its divisor (mode-dependent: Σ samples or Σ 1), `samples`
/// the shard's cumulative sample count, `contributors` its accepted leaves.
void serialize_aggregate_into(std::uint32_t round, std::int32_t client,
                              std::uint64_t samples, float loss,
                              std::uint64_t contributors,
                              std::uint64_t total_weight,
                              const std::vector<ExactTerm>& terms,
                              std::vector<std::uint8_t>& out);

/// Decoders throw evfl::FormatError on bad magic/version/kind/CRC/size.
WeightUpdate deserialize_update(const std::vector<std::uint8_t>& bytes);
GlobalModel deserialize_global(const std::vector<std::uint8_t>& bytes);

/// Buffer-reusing decoders: `out`'s vectors are resized in place (capacity
/// retained), so a steady-state decode loop does not allocate.
void deserialize_update_into(const std::vector<std::uint8_t>& bytes,
                             WeightUpdate& out);
void deserialize_global_into(const std::vector<std::uint8_t>& bytes,
                             GlobalModel& out);

}  // namespace evfl::fl
