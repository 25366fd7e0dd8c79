#include "fl/serialize.hpp"

#include <array>
#include <cstring>

#include <cmath>

#include "common/error.hpp"
#include "fl/codec.hpp"
#include "fl/fedavg.hpp"
#include "fl/wire_detail.hpp"

namespace evfl::fl {

namespace {

using wire_detail::Reader;
using wire_detail::Writer;

// ---- CRC-32, slice-by-8 ----------------------------------------------------
// table[0] is the classic byte-at-a-time table; table[k][b] extends it so
// that eight input bytes fold into the running CRC with eight independent
// lookups per 64-bit load instead of eight dependent byte rounds.

struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
};

CrcTables make_crc_tables() {
  CrcTables tables;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

struct Header {
  std::uint16_t version = kWireVersion;
  std::uint16_t kind = 0;
  std::uint32_t round = 0;
  std::int32_t client = -1;
  std::uint64_t samples = 0;
  float loss = 0.0f;
  CodecKind codec = CodecKind::kDense;
  int quant_bits = 0;
  std::uint16_t agg_leaves = 0;  // saturated leaves behind a forwarded mean
  std::uint64_t dim = 0;   // logical weight count after decoding
  std::uint64_t nnz = 0;   // entries on the wire
  std::uint32_t crc = 0;
};

void write_message(std::vector<std::uint8_t>& out, MessageKind kind,
                   std::uint32_t round, std::int32_t client,
                   std::uint64_t samples, float loss,
                   const std::vector<float>& weights) {
  out.clear();
  out.reserve(kWireHeaderBytesV1 + weights.size() * sizeof(float));
  Writer w(out);
  w.put(kWireMagic);
  w.put(kWireVersion);
  w.put(static_cast<std::uint16_t>(kind));
  w.put(round);
  w.put(client);
  w.put(samples);
  w.put(loss);
  w.put(static_cast<std::uint64_t>(weights.size()));
  w.put(crc32(reinterpret_cast<const std::uint8_t*>(weights.data()),
              weights.size() * sizeof(float)));
  w.put_floats(weights.data(), weights.size());
}

Header read_header(Reader& r) {
  const auto magic = r.get<std::uint32_t>();
  if (magic != kWireMagic) throw FormatError("wire: bad magic");
  Header h;
  h.version = r.get<std::uint16_t>();
  if (h.version != kWireVersion && h.version != kWireVersion2) {
    throw FormatError("wire: unsupported version " +
                      std::to_string(h.version));
  }
  h.kind = r.get<std::uint16_t>();
  h.round = r.get<std::uint32_t>();
  h.client = r.get<std::int32_t>();
  h.samples = r.get<std::uint64_t>();
  h.loss = r.get<float>();
  if (h.version == kWireVersion) {
    h.dim = r.get<std::uint64_t>();
    h.nnz = h.dim;
    h.codec = CodecKind::kDense;
    h.quant_bits = 0;
  } else {
    const auto codec = r.get<std::uint8_t>();
    if (codec > static_cast<std::uint8_t>(CodecKind::kAggSum)) {
      throw FormatError("wire: unknown codec " + std::to_string(codec));
    }
    h.codec = static_cast<CodecKind>(codec);
    h.quant_bits = r.get<std::uint8_t>();
    h.agg_leaves = r.get<std::uint16_t>();
    // Only a forwarded update mean legitimately carries the field; a
    // broadcast or an exact aggregate (whose contributor count rides in the
    // payload) with it set is a forgery or corruption.
    if (h.agg_leaves != 0 &&
        (h.kind != static_cast<std::uint16_t>(MessageKind::kWeightUpdate) ||
         h.codec == CodecKind::kAggSum)) {
      throw FormatError("wire: unexpected agg_leaves field");
    }
    h.dim = r.get<std::uint64_t>();
    h.nnz = r.get<std::uint64_t>();
    if (h.dim > kMaxWireDim) throw FormatError("wire: dimension too large");
    if (h.nnz > h.dim) throw FormatError("wire: nnz exceeds dimension");
    const bool quantized = h.codec == CodecKind::kTopKQuant ||
                           h.codec == CodecKind::kQuantDense;
    if (quantized && h.quant_bits != 4 && h.quant_bits != 8) {
      throw FormatError("wire: unsupported quant bits " +
                        std::to_string(h.quant_bits));
    }
    if (!quantized && h.quant_bits != 0) {
      throw FormatError("wire: quant bits on an unquantized codec");
    }
    if ((h.codec == CodecKind::kDense || h.codec == CodecKind::kDelta ||
         h.codec == CodecKind::kQuantDense ||
         h.codec == CodecKind::kAggSum) &&
        h.nnz != h.dim) {
      throw FormatError("wire: dense codec with nnz != dim");
    }
  }
  h.crc = r.get<std::uint32_t>();
  return h;
}

/// Payload byte span for a validated header.
std::size_t payload_bytes(const Header& h) {
  const std::size_t nnz = static_cast<std::size_t>(h.nnz);
  const std::size_t blocks = (nnz + kQuantBlock - 1) / kQuantBlock;
  switch (h.codec) {
    case CodecKind::kDense:
    case CodecKind::kDelta:
      return nnz * sizeof(float);
    case CodecKind::kTopK:
      return nnz * (sizeof(std::uint32_t) + sizeof(float));
    case CodecKind::kTopKQuant:
      return nnz * sizeof(std::uint32_t) + blocks * sizeof(float) +
             wire_detail::packed_bytes(nnz, h.quant_bits);
    case CodecKind::kQuantDense:
      return blocks * sizeof(float) +
             wire_detail::packed_bytes(nnz, h.quant_bits);
    case CodecKind::kAggSum:
      // contributors + total_weight, then one i128 (two u64 words) per term.
      return 2 * sizeof(std::uint64_t) + nnz * 16;
  }
  throw FormatError("wire: unknown codec");  // unreachable after read_header
}

/// Sign-extend a packed `bits`-wide two's-complement value.
int unpack_signed(std::uint32_t raw, int bits) {
  const std::uint32_t sign = 1u << (bits - 1);
  return static_cast<int>((raw ^ sign)) - static_cast<int>(sign);
}

/// Read `h.nnz` strictly-increasing indices < h.dim.
void read_indices(Reader& r, const Header& h,
                  std::vector<std::uint32_t>& out) {
  out.resize(static_cast<std::size_t>(h.nnz));
  std::int64_t prev = -1;
  for (std::uint32_t& idx : out) {
    idx = r.get<std::uint32_t>();
    if (idx >= h.dim) throw FormatError("wire: sparse index out of range");
    if (static_cast<std::int64_t>(idx) <= prev) {
      throw FormatError("wire: sparse indices not strictly increasing");
    }
    prev = idx;
  }
}

/// Decode the (validated, CRC-checked) payload into a dense float vector.
/// Returns true when the result is a delta against the broadcast reference.
bool read_payload(Reader& r, const Header& h, std::vector<float>& weights,
                  std::vector<std::uint32_t>& index_scratch) {
  const std::size_t bytes = payload_bytes(h);
  r.require(bytes, "truncated payload");
  const std::uint32_t actual = crc32(r.cursor(), bytes);
  if (actual != h.crc) throw FormatError("wire: payload CRC mismatch");

  const std::size_t dim = static_cast<std::size_t>(h.dim);
  const std::size_t nnz = static_cast<std::size_t>(h.nnz);
  switch (h.codec) {
    case CodecKind::kDense:
    case CodecKind::kDelta:
      r.get_floats_into(nnz, weights);
      return h.codec == CodecKind::kDelta;
    case CodecKind::kTopK: {
      read_indices(r, h, index_scratch);
      weights.assign(dim, 0.0f);
      for (std::size_t j = 0; j < nnz; ++j) {
        weights[index_scratch[j]] = r.get<float>();
      }
      return true;
    }
    case CodecKind::kTopKQuant: {
      read_indices(r, h, index_scratch);
      // Two cursors over one span: block scales sit between the indices and
      // the packed values, so the value loop reads its block's scale by
      // offset instead of staging a scale array.
      const std::size_t blocks = (nnz + kQuantBlock - 1) / kQuantBlock;
      const std::uint8_t* scales = r.cursor();
      r.skip(blocks * sizeof(float));
      const std::uint8_t* packed = r.cursor();
      r.skip(wire_detail::packed_bytes(nnz, h.quant_bits));
      weights.assign(dim, 0.0f);
      for (std::size_t j = 0; j < nnz; ++j) {
        float scale;
        std::memcpy(&scale, scales + (j / kQuantBlock) * sizeof(float),
                    sizeof(float));
        std::uint32_t raw;
        if (h.quant_bits == 8) {
          raw = packed[j];
        } else {
          raw = (packed[j / 2] >> ((j % 2) * 4)) & 0xFu;
        }
        weights[index_scratch[j]] =
            static_cast<float>(unpack_signed(raw, h.quant_bits)) * scale;
      }
      return true;
    }
    case CodecKind::kQuantDense: {
      const std::size_t blocks = (dim + kQuantBlock - 1) / kQuantBlock;
      const std::uint8_t* scales = r.cursor();
      r.skip(blocks * sizeof(float));
      const std::uint8_t* packed = r.cursor();
      r.skip(wire_detail::packed_bytes(dim, h.quant_bits));
      weights.resize(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        float scale;
        std::memcpy(&scale, scales + (j / kQuantBlock) * sizeof(float),
                    sizeof(float));
        std::uint32_t raw;
        if (h.quant_bits == 8) {
          raw = packed[j];
        } else {
          raw = (packed[j / 2] >> ((j % 2) * 4)) & 0xFu;
        }
        weights[j] =
            static_cast<float>(unpack_signed(raw, h.quant_bits)) * scale;
      }
      return false;  // absolute weights, just coarser
    }
    case CodecKind::kAggSum:
      // Decoded by read_agg_payload from the update path; a global message
      // carrying it is rejected before reaching here.
      throw FormatError("wire: aggregate payload outside an update");
  }
  throw FormatError("wire: unknown codec");  // unreachable after read_header
}

/// Decode a kAggSum payload: CRC, then contributors / total_weight / terms.
/// Fills both the exact fields and a float mean view in `out.weights` so
/// every validator rule that inspects the decoded vector still applies.
void read_agg_payload(Reader& r, const Header& h, WeightUpdate& out) {
  const std::size_t bytes = payload_bytes(h);
  r.require(bytes, "truncated payload");
  const std::uint32_t actual = crc32(r.cursor(), bytes);
  if (actual != h.crc) throw FormatError("wire: payload CRC mismatch");

  out.agg_contributors = r.get<std::uint64_t>();
  const auto total_weight = r.get<std::uint64_t>();
  if (total_weight == 0) {
    throw FormatError("wire: aggregate with zero total weight");
  }
  const std::size_t dim = static_cast<std::size_t>(h.dim);
  out.agg_terms.resize(dim);
  out.weights.resize(dim);
  const double tw = static_cast<double>(total_weight);
  for (std::size_t i = 0; i < dim; ++i) {
    const auto lo = r.get<std::uint64_t>();
    const auto hi = r.get<std::uint64_t>();
    ExactTerm t = static_cast<ExactTerm>(
        (static_cast<unsigned __int128>(hi) << 64) |
        static_cast<unsigned __int128>(lo));
    // Clamp decoded terms: a hostile peer could otherwise craft sums whose
    // addition overflows the parent's accumulator (signed overflow is UB).
    t = clamp_wire_term(t);
    out.agg_terms[i] = t;
    out.weights[i] =
        static_cast<float>(std::ldexp(static_cast<double>(t), -64) / tw);
  }
}

thread_local std::vector<std::uint32_t> t_index_scratch;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const CrcTables tables = make_crc_tables();
  const auto& t = tables.t;
  std::uint32_t c = 0xFFFFFFFFu;
  while (size >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void serialize_into(const WeightUpdate& update,
                    std::vector<std::uint8_t>& out) {
  write_message(out, MessageKind::kWeightUpdate, update.round,
                update.client_id, update.sample_count, update.train_loss,
                update.weights);
}

void serialize_into(const GlobalModel& model, std::vector<std::uint8_t>& out) {
  write_message(out, MessageKind::kGlobalModel, model.round, -1, 0, 0.0f,
                model.weights);
}

std::vector<std::uint8_t> serialize(const WeightUpdate& update) {
  std::vector<std::uint8_t> out;
  serialize_into(update, out);
  return out;
}

std::vector<std::uint8_t> serialize(const GlobalModel& model) {
  std::vector<std::uint8_t> out;
  serialize_into(model, out);
  return out;
}

void deserialize_update_into(const std::vector<std::uint8_t>& bytes,
                             WeightUpdate& out) {
  Reader r(bytes);
  const Header h = read_header(r);
  if (h.kind != static_cast<std::uint16_t>(MessageKind::kWeightUpdate)) {
    throw FormatError("wire: expected WeightUpdate");
  }
  if (h.codec == CodecKind::kQuantDense) {
    // Broadcast-leg encoding; no update path produces it, so arriving on an
    // update it can only be a forgery or corruption.
    throw FormatError("wire: kQuantDense is not a valid update codec");
  }
  out.client_id = h.client;
  out.round = h.round;
  out.sample_count = h.samples;
  out.train_loss = h.loss;
  if (h.codec == CodecKind::kAggSum) {
    out.is_delta = false;
    read_agg_payload(r, h, out);
    return;
  }
  // Clear stale aggregate state: `out` buffers are reused across decodes.
  // A forwarded aggregate mean re-announces its (saturated) leaf coverage
  // through the v2 agg_leaves field; leaf updates and v1 messages carry 0.
  out.agg_terms.clear();
  out.agg_contributors = h.agg_leaves;
  out.is_delta = read_payload(r, h, out.weights, t_index_scratch);
}

void serialize_aggregate_into(std::uint32_t round, std::int32_t client,
                              std::uint64_t samples, float loss,
                              std::uint64_t contributors,
                              std::uint64_t total_weight,
                              const std::vector<ExactTerm>& terms,
                              std::vector<std::uint8_t>& out) {
  EVFL_REQUIRE(total_weight > 0, "serialize_aggregate: zero total weight");
  const std::uint64_t dim = terms.size();
  out.clear();
  out.reserve(kWireHeaderBytesV2 + 16 + static_cast<std::size_t>(dim) * 16);
  Writer w(out);
  w.put(kWireMagic);
  w.put(kWireVersion2);
  w.put(static_cast<std::uint16_t>(MessageKind::kWeightUpdate));
  w.put(round);
  w.put(client);
  w.put(samples);
  w.put(loss);
  w.put(static_cast<std::uint8_t>(CodecKind::kAggSum));
  w.put(std::uint8_t{0});   // quant_bits
  w.put(std::uint16_t{0});  // reserved
  w.put(dim);
  w.put(dim);  // nnz == dim
  const std::size_t crc_pos = w.pos();
  w.put(std::uint32_t{0});  // CRC placeholder
  const std::size_t payload_pos = w.pos();
  w.put(contributors);
  w.put(total_weight);
  for (const ExactTerm t : terms) {
    const auto u = static_cast<unsigned __int128>(t);
    w.put(static_cast<std::uint64_t>(u));        // low word
    w.put(static_cast<std::uint64_t>(u >> 64));  // high word
  }
  w.patch_u32(crc_pos,
              crc32(out.data() + payload_pos, out.size() - payload_pos));
}

void deserialize_global_into(const std::vector<std::uint8_t>& bytes,
                             GlobalModel& out) {
  Reader r(bytes);
  const Header h = read_header(r);
  if (h.kind != static_cast<std::uint16_t>(MessageKind::kGlobalModel)) {
    throw FormatError("wire: expected GlobalModel");
  }
  if (h.codec != CodecKind::kDense && h.codec != CodecKind::kQuantDense) {
    // A delta-coded broadcast has no reference semantics: a client that
    // missed rounds (or just joined) could never reconstruct it.
    throw FormatError("wire: global model cannot be delta-coded");
  }
  out.round = h.round;
  const bool is_delta = read_payload(r, h, out.weights, t_index_scratch);
  EVFL_ASSERT(!is_delta, "global decode produced a delta");
}

WeightUpdate deserialize_update(const std::vector<std::uint8_t>& bytes) {
  WeightUpdate u;
  deserialize_update_into(bytes, u);
  return u;
}

GlobalModel deserialize_global(const std::vector<std::uint8_t>& bytes) {
  GlobalModel g;
  deserialize_global_into(bytes, g);
  return g;
}

}  // namespace evfl::fl
