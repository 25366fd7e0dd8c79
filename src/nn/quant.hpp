// Block quantization of the wire codec (fl/codec): values are grouped into
// fixed-size blocks of kQuantBlockSize floats, each block carrying one fp32
// scale (maxabs / qmax) and signed integer codes.  An all-zero block gets
// scale 0 and zero codes, so dequantization is exact there.  The codec
// quantizes update deltas and broadcast weights with these helpers, and
// fl/wire_detail.hpp re-exports quant_qmax for the wire TUs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace evfl::nn {

/// Values per quantization block; one fp32 scale is stored per block.
inline constexpr std::size_t kQuantBlockSize = 256;

/// Symmetric quantization grid: b bits store integers in [-qmax, qmax].
inline int quant_qmax(int bits) { return (1 << (bits - 1)) - 1; }

/// Block-quantize `count` values from `src`: per-block fp32 scale
/// (maxabs / qmax) into `scales`, rounded signed integers into `quants`.
/// Buffers are resized (capacity reused), so steady-state calls with a
/// stable `count` do not allocate.
inline void block_quantize(const float* src, std::size_t count, int bits,
                           std::vector<float>& scales,
                           std::vector<std::int8_t>& quants) {
  const int qmax = quant_qmax(bits);
  const std::size_t blocks = (count + kQuantBlockSize - 1) / kQuantBlockSize;
  scales.resize(blocks);
  quants.resize(count);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kQuantBlockSize;
    const std::size_t hi = std::min(lo + kQuantBlockSize, count);
    float maxabs = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      maxabs = std::max(maxabs, std::fabs(src[i]));
    }
    const float scale = maxabs > 0.0f ? maxabs / static_cast<float>(qmax)
                                      : 0.0f;
    scales[b] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      const float q = std::nearbyint(src[i] * inv);
      quants[i] = static_cast<std::int8_t>(
          std::clamp(static_cast<int>(q), -qmax, qmax));
    }
  }
}

/// Reconstruct one value from its code and its block's scale.
inline float dequantize(std::int8_t code, float scale) {
  return static_cast<float>(code) * scale;
}

}  // namespace evfl::nn
