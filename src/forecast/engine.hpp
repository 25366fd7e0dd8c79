// forecast::Engine — batched, steady-state-allocation-free inference
// serving (DESIGN.md §13).
//
// The training path (nn::Trainer) is tuned for gradient work; serving has
// a different shape: many concurrent series, one forward pass each, no
// caches for backward, and a federated round that wants to swap in new
// global weights without stalling queries.  The engine therefore:
//
//  - freezes a trained forecaster's flat weight vector into an immutable
//    fp32 Snapshot whose LSTM rows are zero-padded to whole cache lines;
//  - scores B series per call on the training forward's kernels — the
//    tensor::matmul_acc GEMM and the shared nn/lstm_kernels.hpp gates —
//    with all temporaries borrowed from the per-thread runtime::Workspace
//    lane: zero heap allocations per batch after warmup;
//  - double-buffers snapshots: publish() freezes into the inactive slot
//    and flips an atomic index, so readers never block on a swap (the
//    single publisher waits for stragglers on the slot it reuses);
//  - records batch latency (obs::Histogram p50/p99) and forecasts/sec
//    counters into an optional obs::Registry.
//
// Determinism: a score is bit-identical to Sequential::predict at every
// batch width.  Every z element runs the same fused multiply-add sequence
// as Lstm::forward (bias, then ascending k over x·Wx and h·Wh) and the
// gates are the same functions, so a row's result depends only on its own
// data — never on batch composition or thread schedule (rows are
// independent; output order is index order; serial == pool-parallel
// bitwise).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "forecast/model.hpp"
#include "obs/telemetry.hpp"
#include "runtime/run_context.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::forecast {

struct EngineConfig {
  /// Largest batch one score() call accepts (scratch sizing contract; the
  /// workspace warms up to this and never grows past it).
  std::size_t max_batch = 256;
};

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
  /// One frozen weight set in the serving layout.  The LSTM bias, input
  /// kernel and recurrent kernel keep the row stride zstride = 4H rounded
  /// up to 16 floats, zero-padded: b_pad and wx_pad feed the z-init, and
  /// wh_pad is the B operand of the recurrent tensor::matmul_acc.  Matrix
  /// storage starts on a 64-byte line and zstride is a whole number of
  /// lines, so every Wh row starts on one.
  struct Snapshot {
    std::vector<float> b_pad;   // [zstride]
    std::vector<float> wx_pad;  // [input_features][zstride]
    tensor::Matrix wh_pad;      // [H][zstride]
    tensor::Matrix w1, b1;      // dense(relu)
    tensor::Matrix w2, b2;      // dense(linear)
    std::size_t zstride = 0;
  };

  void freeze_into(Snapshot& snap, const std::vector<float>& flat);
  std::uint32_t acquire_slot();
  void score_rows(const Snapshot& snap, const tensor::Tensor3& x, float* out,
                  std::size_t row_begin, std::size_t row_end) const;

  ForecasterConfig model_;
  EngineConfig cfg_;

  Snapshot slots_[2];
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint32_t> readers_[2] = {0, 0};
  std::atomic<std::uint64_t> version_{0};

  obs::Histogram* latency_ = nullptr;
  obs::Counter* forecasts_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Gauge* version_gauge_ = nullptr;
};

}  // namespace evfl::forecast
