// Byte-level helpers shared by the wire implementation TUs (serialize.cpp
// writes/reads both wire versions; codec.cpp writes v2 compressed payloads).
// Internal to src/fl — not part of the public evfl::fl surface.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "nn/quant.hpp"

namespace evfl::fl::wire_detail {

/// Little-endian appender over a caller-owned byte vector.  The vector is
/// reused across messages (capacity is retained), so steady-state encoding
/// does not allocate.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_.insert(out_.end(), buf, buf + sizeof(T));
  }

  void put_bytes(const std::uint8_t* data, std::size_t size) {
    if (size == 0) return;  // data may be null for an empty buffer
    out_.insert(out_.end(), data, data + size);
  }

  void put_floats(const float* values, std::size_t count) {
    put_bytes(reinterpret_cast<const std::uint8_t*>(values),
              count * sizeof(float));
  }

  std::size_t pos() const { return out_.size(); }

  /// Overwrite a previously written u32 (the payload CRC is computed after
  /// the payload is assembled, then patched into the header).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    std::memcpy(out_.data() + pos, &v, sizeof(v));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian cursor; every overrun is a FormatError,
/// never UB.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      throw FormatError("wire: truncated message");
    }
    T v;
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Read `count` floats into `out` (resized; capacity reused).  Validates
  /// against remaining bytes BEFORE computing count*4: a corrupted count
  /// field must produce FormatError, not a giant allocation or an
  /// overflow-deflated size check.
  void get_floats_into(std::size_t count, std::vector<float>& out) {
    if (count > remaining() / sizeof(float)) {
      throw FormatError("wire: truncated weight payload");
    }
    const std::size_t bytes = count * sizeof(float);
    out.resize(count);
    // Empty payloads are legal; memcpy's pointers must not be null.
    if (bytes != 0) std::memcpy(out.data(), in_.data() + pos_, bytes);
    pos_ += bytes;
  }

  const std::uint8_t* cursor() const { return in_.data() + pos_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return in_.size() - pos_; }

  void require(std::size_t bytes, const char* what) {
    if (bytes > remaining()) throw FormatError(std::string("wire: ") + what);
  }

  void skip(std::size_t bytes) {
    require(bytes, "truncated message");
    pos_ += bytes;
  }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

/// Symmetric quantization grid (nn/quant.hpp): b bits store integers in
/// [-qmax, qmax].
using nn::quant_qmax;

/// Wire bytes for `count` packed `bits`-wide values (4-bit values pack two
/// per byte, low nibble first).
inline std::size_t packed_bytes(std::uint64_t count, int bits) {
  return static_cast<std::size_t>((count * static_cast<std::uint64_t>(bits) +
                                   7) / 8);
}

}  // namespace evfl::fl::wire_detail
