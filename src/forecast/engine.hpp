// forecast::Engine — batched, steady-state-allocation-free inference
// serving (DESIGN.md §13).
//
// The training path (nn::Trainer) is tuned for gradient work; serving has
// a different shape: many concurrent series, one forward pass each, no
// caches for backward, and a federated round that wants to swap in new
// global weights without stalling queries.  The engine therefore:
//
//  - freezes a trained forecaster's flat weight vector into an immutable
//    Snapshot (fp32, or int8 block-quantized on the nn/quant.hpp grid the
//    wire codec uses);
//  - scores B series per call on the training forward's kernels — the
//    float-FMA GEMM sequence and the shared nn/lstm_kernels.hpp gates —
//    with all temporaries borrowed from the per-thread runtime::Workspace
//    lane: zero heap allocations per batch after warmup;
//  - double-buffers snapshots: publish() freezes into the inactive slot
//    and flips an atomic index, so readers never block on a swap (the
//    single publisher waits for stragglers on the slot it reuses);
//  - records batch latency (obs::Histogram p50/p99) and forecasts/sec
//    counters into an optional obs::Registry.
//
// Determinism: an fp32 score is bit-identical to Sequential::predict at
// every batch width.  Every z element runs the same fused multiply-add
// sequence as Lstm::forward (bias, then ascending k over x·Wx and h·Wh)
// and the gates are the same functions, so a row's result depends only on
// its own data — never on batch composition or thread schedule (rows are
// independent; output order is index order; serial == pool-parallel
// bitwise).  int8 snapshots follow the same rules against their own
// quantized weights.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "forecast/model.hpp"
#include "obs/telemetry.hpp"
#include "runtime/run_context.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::forecast {

/// Weight storage for a frozen snapshot: fp32, or int8 block-quantized
/// (per-block scales, nn/quant.hpp grid) for cache footprint and integer
/// arithmetic in the recurrent matmul.  Under kInt8 the recurrent weight
/// codes are confined to ±63 (7 of the 8 bits) so the unsigned-activation
/// maddubs kernel is saturation-free — see detail::QuantMat.
enum class ServePrecision { kFp32, kInt8 };

/// "fp32" / "int8".
std::string to_string(ServePrecision p);

struct EngineConfig {
  /// Largest batch one score() call accepts (scratch sizing contract; the
  /// workspace warms up to this and never grows past it).
  std::size_t max_batch = 256;
  ServePrecision precision = ServePrecision::kFp32;
};

namespace detail {

/// Quantized weight matrix in the serving layout.  Weight codes are
/// 7-bit (±63) on the shared nn/quant.hpp 256-element block grid, stored
/// int8 in 16-column panels with k interleaved in quads: within a panel,
/// byte `lane*4 + k%4` of quad k/4 holds w[k][panel*16 + lane].  That
/// feeds vpmaddubsw directly: activations are quantized unsigned (±127
/// around a fixed zero point of 128) and broadcast four-k at a time, and
/// 255·63·2 < 2^15 means the pairwise s16 sums can never saturate — the
/// integer dot products are exact, so SIMD and scalar scoring agree
/// bit-for-bit.  The unsigned offset is removed exactly in the epilogue:
/// dot_s8 = dot_u8 - 128·Σcodes, with 128·Σcodes precomputed per
/// (kblock, column) in colsum128.  Scales/colsum are stored
/// [kblock][padded col] so the float epilogue loads 8 consecutive
/// columns per vector.
struct QuantMat {
  std::vector<std::int8_t> codes;       // [kblock][panel][kquad][16·4]
  std::vector<float> scales;            // [kblock][padded_cols]
  std::vector<std::int32_t> colsum128;  // [kblock][padded_cols]
  std::size_t k = 0;            // logical inner dimension
  std::size_t cols = 0;         // logical output columns
  std::size_t padded_k = 0;     // per-row activation codes (quad-padded)
  std::size_t padded_cols = 0;  // cols rounded up to 16
  std::size_t kblocks = 0;      // ceil(k / nn::kQuantBlockSize)
};

}  // namespace detail

/// Batched serving engine for the paper's LSTM/Dense forecaster.  Thread
/// safety: any number of threads may call score() concurrently; publish()
/// is single-publisher (the federated round loop) and may run concurrently
/// with scores.  score() never blocks on publish(); publish() spin-yields
/// until the slot it is about to overwrite has drained its readers.
class Engine {
 public:
  /// `registry` is optional; when set, the engine records
  /// engine.batch_seconds (histogram), engine.forecasts_total /
  /// engine.batches_total (counters) and engine.snapshot_version (gauge).
  /// The registry must outlive the engine.
  explicit Engine(const ForecasterConfig& model, const EngineConfig& cfg = {},
                  obs::Registry* registry = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Freeze `flat_weights` (Sequential::get_weights layout) into the
  /// inactive snapshot slot and make it current.  Allocation is allowed
  /// here (it reuses slot capacity after the second publish per slot);
  /// scoring threads keep running against the old snapshot throughout.
  void publish(const std::vector<float>& flat_weights);

  /// Number of publishes so far; 0 means score() is not yet legal.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Score a batch: one forecast per series, out[i] = f(x[i, :, :]),
  /// deterministic index order.  `x` is [batch <= max_batch, time,
  /// input_features]; `out` must hold batch() floats.  Passing a RunContext
  /// with a pool parallelizes across rows (note: ThreadPool dispatch itself
  /// allocates; the zero-alloc steady-state contract is for the serial
  /// path, which is what bench_serving --check-allocs pins).
  void score(const tensor::Tensor3& x, float* out,
             const runtime::RunContext* ctx = nullptr);

  /// Convenience overload resizing `out` (allocation-free once warm).
  void score(const tensor::Tensor3& x, std::vector<float>& out,
             const runtime::RunContext* ctx = nullptr);

  /// Score only the first `rows` samples of `x` (rows <= x.batch()),
  /// leaving the rest untouched — the rolling-window serving shape: a
  /// streaming caller keeps one warm max_batch staging tensor and fills
  /// however many zone windows became ready this flush, so scoring a
  /// partial batch must not require reshaping (and reallocating) the
  /// staging buffer.
  void score_prefix(const tensor::Tensor3& x, std::size_t rows, float* out,
                    const runtime::RunContext* ctx = nullptr);

  const ForecasterConfig& model_config() const { return model_; }
  const EngineConfig& config() const { return cfg_; }

 private:
  /// One frozen weight set in the serving layout.  b_pad/wx_pad are the
  /// LSTM bias and input kernel zero-padded to the gate stride (zstride =
  /// 4H rounded up to 32); the recurrent kernel is either repacked into
  /// L1-resident 32-column panels ([panel][k][32], fp32) or quantized
  /// (kInt8).  Under kInt8, wx/w1/w2 are round-tripped through the int8
  /// grid at freeze time and dequantized — they are <10% of the
  /// parameters, so fp32 compute there costs nothing.
  struct Snapshot {
    std::vector<float> b_pad;      // [zstride]
    std::vector<float> wx_pad;     // [input_features][zstride]
    std::vector<float> wh_panels;  // [zstride/32][H][32] (fp32 only)
    detail::QuantMat wh_q;         // quantized recurrent kernel (kInt8)
    tensor::Matrix w1, b1;         // dense(relu)
    tensor::Matrix w2, b2;         // dense(linear)
    std::size_t zstride = 0;
    bool quantized = false;
  };

  void freeze_into(Snapshot& snap, const std::vector<float>& flat);
  void quant_roundtrip(tensor::Matrix& m, std::size_t rows, std::size_t cols,
                       const float* src);
  std::uint32_t acquire_slot();
  void score_rows(const Snapshot& snap, const tensor::Tensor3& x, float* out,
                  std::size_t row_begin, std::size_t row_end) const;

  ForecasterConfig model_;
  EngineConfig cfg_;

  Snapshot slots_[2];
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint32_t> readers_[2] = {0, 0};
  std::atomic<std::uint64_t> version_{0};

  // publish-time scratch (single publisher, reused across rounds)
  tensor::Matrix freeze_wx_;
  std::vector<float> freeze_col_;
  std::vector<float> freeze_scales_;
  std::vector<std::int8_t> freeze_quants_;

  obs::Histogram* latency_ = nullptr;
  obs::Counter* forecasts_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Gauge* version_gauge_ = nullptr;
};

}  // namespace evfl::forecast
