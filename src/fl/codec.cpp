#include "fl/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "fl/serialize.hpp"
#include "fl/wire_detail.hpp"

namespace evfl::fl {

namespace {

using wire_detail::Writer;

/// Header through the CRC field; returns the byte position of the CRC so it
/// can be patched once the payload is assembled.  `agg_leaves` is the
/// saturated leaf count behind a forwarded aggregate mean (0 for leaf
/// updates and broadcasts) — see the agg_leaves field in serialize.hpp.
std::size_t write_v2_header(Writer& w, MessageKind kind, std::uint32_t round,
                            std::int32_t client, std::uint64_t samples,
                            float loss, CodecKind codec, int quant_bits,
                            std::uint64_t dim, std::uint64_t nnz,
                            std::uint16_t agg_leaves = 0) {
  w.put(kWireMagic);
  w.put(kWireVersion2);
  w.put(static_cast<std::uint16_t>(kind));
  w.put(round);
  w.put(client);
  w.put(samples);
  w.put(loss);
  w.put(static_cast<std::uint8_t>(codec));
  w.put(static_cast<std::uint8_t>(quant_bits));
  w.put(agg_leaves);
  w.put(dim);
  w.put(nnz);
  const std::size_t crc_pos = w.pos();
  w.put(std::uint32_t{0});  // CRC placeholder
  return crc_pos;
}

/// Saturate a contributor count into the u16 header field.  65535 already
/// far exceeds any single shard's fan-out; the exact count rides in the
/// kAggSum payload when exactness matters.
std::uint16_t saturate_leaves(std::uint64_t contributors) {
  return contributors > 0xFFFFu ? std::uint16_t{0xFFFFu}
                                : static_cast<std::uint16_t>(contributors);
}

// Block quantization itself (per-block scale + codes) is
// nn::block_quantize / nn::dequantize in nn/quant.hpp.  Only the wire
// packing lives here.

/// Append scales + packed codes (two-per-byte, low nibble first, for 4-bit).
void write_quantized(Writer& w, const std::vector<float>& scales,
                     const std::vector<std::int8_t>& quants, int bits) {
  w.put_floats(scales.data(), scales.size());
  if (bits == 8) {
    w.put_bytes(reinterpret_cast<const std::uint8_t*>(quants.data()),
                quants.size());
    return;
  }
  for (std::size_t i = 0; i < quants.size(); i += 2) {
    const std::uint8_t lo = static_cast<std::uint8_t>(quants[i]) & 0xFu;
    const std::uint8_t hi =
        i + 1 < quants.size()
            ? static_cast<std::uint8_t>(static_cast<std::uint8_t>(quants[i + 1])
                                        << 4)
            : 0u;
    w.put(static_cast<std::uint8_t>(hi | lo));
  }
}

}  // namespace

std::string to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kDense: return "dense";
    case CodecKind::kDelta: return "delta";
    case CodecKind::kTopK: return "topk";
    case CodecKind::kTopKQuant: return "topk_q";
    case CodecKind::kQuantDense: return "quant_dense";
    case CodecKind::kAggSum: return "agg_sum";
  }
  return "unknown";
}

CodecKind parse_codec_kind(const std::string& name) {
  if (name == "dense") return CodecKind::kDense;
  if (name == "delta") return CodecKind::kDelta;
  if (name == "topk") return CodecKind::kTopK;
  if (name == "topk_q") return CodecKind::kTopKQuant;
  throw Error("unknown codec '" + name +
              "' (expected dense|delta|topk|topk_q)");
}

bool broadcast_is_lossy(const CodecConfig& cfg) {
  return cfg.kind == CodecKind::kTopKQuant;
}

UpdateEncoder::UpdateEncoder(CodecConfig cfg) : cfg_(cfg) {
  if (cfg_.kind == CodecKind::kQuantDense) {
    throw Error("kQuantDense is a broadcast-leg codec, not an update codec");
  }
  if (cfg_.quant_bits != 4 && cfg_.quant_bits != 8) {
    throw Error("quant_bits must be 4 or 8, got " +
                std::to_string(cfg_.quant_bits));
  }
  if (!(cfg_.topk_frac > 0.0) || cfg_.topk_frac > 1.0) {
    throw Error("topk_frac must be in (0, 1]");
  }
}

void UpdateEncoder::reset() { residual_.clear(); }

void UpdateEncoder::encode(const WeightUpdate& update,
                           const std::vector<float>& reference,
                           std::vector<std::uint8_t>& out) {
  if (cfg_.kind == CodecKind::kDense) {
    if (update.agg_contributors == 0) {
      serialize_into(update, out);
      return;
    }
    // A forwarded aggregate mean (a robust shard reduction has no exact
    // kAggSum to ship) needs the v2 agg_leaves field so the parent folds it
    // as an aggregate instead of re-buffering it as one leaf vote.
    const std::size_t dense_dim = update.weights.size();
    out.clear();
    Writer w(out);
    const std::size_t crc_pos = write_v2_header(
        w, MessageKind::kWeightUpdate, update.round, update.client_id,
        update.sample_count, update.train_loss, CodecKind::kDense,
        /*quant_bits=*/0, dense_dim, dense_dim,
        saturate_leaves(update.agg_contributors));
    const std::size_t payload_pos = w.pos();
    w.put_floats(update.weights.data(), dense_dim);
    w.patch_u32(crc_pos,
                crc32(out.data() + payload_pos, out.size() - payload_pos));
    return;
  }
  const std::size_t dim = update.weights.size();
  EVFL_ASSERT(reference.size() == dim,
              "encode: reference/update dimension mismatch");

  // Error-feedback delta: what we'd like the server to apply, including
  // everything past rounds failed to ship.
  delta_.resize(dim);
  const bool lossy =
      cfg_.kind == CodecKind::kTopK || cfg_.kind == CodecKind::kTopKQuant;
  if (lossy && residual_.size() != dim) {
    residual_.assign(dim, 0.0f);  // first round, or model was re-seeded
  }
  bool finite = true;
  for (std::size_t i = 0; i < dim; ++i) {
    float d = update.weights[i] - reference[i];
    if (lossy) d += residual_[i];
    delta_[i] = d;
    finite = finite && std::isfinite(d);
  }

  out.clear();
  Writer w(out);

  // A non-finite delta cannot be ranked by magnitude (NaN breaks the
  // selection ordering) and must reach the validator untouched, so it ships
  // dense regardless of the configured codec.  Residual is left as-is: the
  // update will be rejected server-side and this client's state should not
  // absorb its garbage.
  if (cfg_.kind == CodecKind::kDelta || !finite) {
    const std::size_t crc_pos = write_v2_header(
        w, MessageKind::kWeightUpdate, update.round, update.client_id,
        update.sample_count, update.train_loss, CodecKind::kDelta,
        /*quant_bits=*/0, dim, dim,
        saturate_leaves(update.agg_contributors));
    const std::size_t payload_pos = w.pos();
    w.put_floats(delta_.data(), dim);
    w.patch_u32(crc_pos,
                crc32(out.data() + payload_pos, out.size() - payload_pos));
    return;
  }

  // Top-k selection by |delta|, ties broken by index for determinism.
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(cfg_.topk_frac * static_cast<double>(dim))),
      dim > 0 ? 1 : 0, dim);
  index_.resize(dim);
  std::iota(index_.begin(), index_.end(), 0u);
  if (k < dim) {
    std::nth_element(index_.begin(), index_.begin() + k, index_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       const float fa = std::fabs(delta_[a]);
                       const float fb = std::fabs(delta_[b]);
                       return fa != fb ? fa > fb : a < b;
                     });
  }
  std::sort(index_.begin(), index_.begin() + k);  // wire order is ascending
  gathered_.resize(k);
  for (std::size_t j = 0; j < k; ++j) gathered_[j] = delta_[index_[j]];

  const bool quantized = cfg_.kind == CodecKind::kTopKQuant;
  const int bits = quantized ? cfg_.quant_bits : 0;
  const std::size_t crc_pos = write_v2_header(
      w, MessageKind::kWeightUpdate, update.round, update.client_id,
      update.sample_count, update.train_loss, cfg_.kind, bits, dim, k,
      saturate_leaves(update.agg_contributors));
  const std::size_t payload_pos = w.pos();
  w.put_bytes(reinterpret_cast<const std::uint8_t*>(index_.data()),
              k * sizeof(std::uint32_t));
  if (quantized) {
    nn::block_quantize(gathered_.data(), k, bits, scales_, quants_);
    write_quantized(w, scales_, quants_, bits);
  } else {
    w.put_floats(gathered_.data(), k);
  }
  w.patch_u32(crc_pos,
              crc32(out.data() + payload_pos, out.size() - payload_pos));

  // Residual: everything the wire did not carry.  Unselected coordinates
  // keep their full delta; selected ones keep only the quantization error
  // (zero for kTopK).
  std::swap(residual_, delta_);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = index_[j];
    residual_[i] =
        quantized
            ? gathered_[j] - nn::dequantize(quants_[j], scales_[j / kQuantBlock])
            : 0.0f;
  }
}

void encode_global(std::uint32_t round, const std::vector<float>& weights,
                   const CodecConfig& cfg, std::vector<std::uint8_t>& out) {
  if (!broadcast_is_lossy(cfg)) {
    serialize_into(GlobalModel{round, weights}, out);
    return;
  }
  // Broadcast quantization is stateless (no error feedback possible — each
  // client must decode from this message alone) and always 8-bit.
  constexpr int kBits = 8;
  const std::size_t dim = weights.size();
  out.clear();
  Writer w(out);
  const std::size_t crc_pos =
      write_v2_header(w, MessageKind::kGlobalModel, round, /*client=*/-1,
                      /*samples=*/0, /*loss=*/0.0f, CodecKind::kQuantDense,
                      kBits, dim, dim);
  const std::size_t payload_pos = w.pos();
  static thread_local std::vector<float> scales;
  static thread_local std::vector<std::int8_t> quants;
  nn::block_quantize(weights.data(), dim, kBits, scales, quants);
  write_quantized(w, scales, quants, kBits);
  w.patch_u32(crc_pos,
              crc32(out.data() + payload_pos, out.size() - payload_pos));
}

}  // namespace evfl::fl
