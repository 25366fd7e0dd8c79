// Pluggable compression codecs for the federated comms path ("wire v2").
//
// The paper's federated design exchanges only model parameters, and at the
// target scale the canonical FL bottleneck is exactly those bytes: a dense
// fp32 exchange costs 2 x params x 4B x clients every round.  This layer
// shrinks the exchange while keeping the round protocol unchanged:
//
//   kDense     — lossless fp32, byte-identical to wire v1 (the default; all
//                scenario outputs stay bit-identical to the uncompressed
//                path).
//   kDelta     — clients ship `local - global` against the round's broadcast
//                instead of absolute weights (same size, but the basis every
//                lossy codec builds on, and useful for entropy-style
//                transports).
//   kTopK      — top-k sparsification of the delta by magnitude, with
//                client-side error-feedback residual accumulation: dropped
//                coordinates are added back into the next round's delta, so
//                they are re-sent once they accumulate (Deep Gradient
//                Compression style — convergence is preserved, not traded).
//   kTopKQuant — kTopK plus block quantization of the surviving values
//                (per-block fp32 scale over kQuantBlock values, int8 or int4
//                payload).  Quantization error also feeds the residual.
//                Under this codec the broadcast leg is block-quantized too
//                (8-bit, stateless — a client that missed rounds can still
//                decode), which is where the downlink 4x comes from.
//
// The encoder is client-side state (one residual vector per client).  The
// server decodes updates to dense *delta* vectors (WeightUpdate::is_delta),
// runs the UpdateValidator on the decoded update and re-materializes it
// against the broadcast reference before folding — see Aggregator::offer
// and DESIGN.md §10.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/weights.hpp"
#include "nn/quant.hpp"

namespace evfl::fl {

/// Payload encodings that can appear in a v2 wire header.  kDense is never
/// emitted as v2 (it keeps the v1 layout); kQuantDense is the broadcast-leg
/// encoding and never carries an update.
enum class CodecKind : std::uint8_t {
  kDense = 0,      // absolute fp32 weights (wire v1 layout)
  kDelta = 1,      // dense fp32 delta vs the round's broadcast
  kTopK = 2,       // sparse top-k fp32 delta
  kTopKQuant = 3,  // sparse top-k block-quantized delta
  kQuantDense = 4, // dense block-quantized absolute weights (broadcast only)
  kAggSum = 5,     // exact fixed-point partial sums forwarded by an edge
                   // aggregator (wire-only; never a CLI-selectable codec)
};

/// Values per quantization block; one fp32 scale is stored per block.
/// (The grid itself lives in nn/quant.hpp.)
inline constexpr std::size_t kQuantBlock = nn::kQuantBlockSize;

struct CodecConfig {
  CodecKind kind = CodecKind::kDense;
  /// Fraction of delta coordinates kept per update (kTopK/kTopKQuant);
  /// at least one coordinate always ships.
  double topk_frac = 0.05;
  /// Bits per surviving value under kTopKQuant: 8 (int8) or 4 (int4 pairs).
  /// The broadcast leg always quantizes at 8 bits — downlink coarseness
  /// would perturb every client's starting point, uplink error is absorbed
  /// by the error-feedback residual.
  int quant_bits = 8;
};

/// "dense" / "delta" / "topk" / "topk_q".
std::string to_string(CodecKind kind);

/// Inverse of to_string for the --codec CLI knob; throws evfl::Error on an
/// unknown name.
CodecKind parse_codec_kind(const std::string& name);

/// Client-side stateful encoder: turns one round's WeightUpdate into wire
/// bytes against the broadcast the client actually received, carrying the
/// error-feedback residual across rounds.
///
/// Every scratch vector (residual, delta, selection indices, quantization
/// buffers) and the caller's output buffer are reused across rounds, so the
/// steady-state serialize path performs no heap allocations — the property
/// bench_comms --check-allocs pins.
class UpdateEncoder {
 public:
  explicit UpdateEncoder(CodecConfig cfg = {});

  const CodecConfig& config() const { return cfg_; }

  /// Serialize `update` for the wire into `out` (cleared and reused).
  /// `reference` is the round's broadcast weights as the client decoded
  /// them — the base of the delta.  For kDense the output is byte-identical
  /// to the v1 serialize(update).
  ///
  /// A non-finite delta (a Byzantine/corrupted update) is shipped as a
  /// dense kDelta payload instead of being sparsified: NaNs must reach the
  /// server's validator intact, and magnitude selection over NaNs is
  /// meaningless.
  void encode(const WeightUpdate& update, const std::vector<float>& reference,
              std::vector<std::uint8_t>& out);

  /// Error-feedback residual (empty until the first lossy encode; test and
  /// diagnostics hook).
  const std::vector<float>& residual() const { return residual_; }

  /// Drop accumulated residual state (e.g. when the model is re-seeded).
  void reset();

 private:
  CodecConfig cfg_;
  std::vector<float> residual_;
  std::vector<float> delta_;          // scratch: this round's EF-adjusted delta
  std::vector<std::uint32_t> index_;  // scratch: selection order
  std::vector<float> gathered_;       // scratch: selected values, index order
  std::vector<float> scales_;         // scratch: per-block quant scales
  std::vector<std::int8_t> quants_;   // scratch: quantized selected values
};

/// Serialize the round's broadcast under `cfg` into `out` (cleared and
/// reused).  kTopKQuant emits a v2 kQuantDense message (8-bit block
/// quantization); every other codec emits the v1 dense layout
/// byte-identically.
void encode_global(std::uint32_t round, const std::vector<float>& weights,
                   const CodecConfig& cfg, std::vector<std::uint8_t>& out);

/// True when `cfg` makes the broadcast leg lossy — the server must then
/// track the decoded broadcast as the round's delta reference.
bool broadcast_is_lossy(const CodecConfig& cfg);

}  // namespace evfl::fl
