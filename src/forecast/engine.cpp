#include "forecast/engine.hpp"

#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "metrics/timer.hpp"
#include "nn/activation.hpp"
#include "nn/lstm_kernels.hpp"
#include "runtime/workspace.hpp"

namespace evfl::forecast {

namespace {

using tensor::ConstMatView;
using tensor::MatView;

/// Snapshot row stride granule: 16 floats, one 64-byte cache line.
constexpr std::size_t kLineFloats = 16;

/// Copy the row-major rows x cols block `src` into `m`, shaped rows x
/// stride (stride >= cols; the columns past cols stay zero).  Capacity is
/// reused when the shape is stable, so the second publish into a slot does
/// not allocate.
void assign_mat(tensor::Matrix& m, std::size_t rows, std::size_t cols,
                std::size_t stride, const float* src) {
  if (m.rows() != rows || m.cols() != stride) {
    m = tensor::Matrix(rows, stride);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(m.row(r), src + r * cols, cols * sizeof(float));
  }
}

}  // namespace

Engine::Engine(const ForecasterConfig& model, const EngineConfig& cfg,
               obs::Registry* registry)
    : model_(model), cfg_(cfg) {
  EVFL_REQUIRE(cfg_.max_batch > 0, "EngineConfig.max_batch must be > 0");
  readers_[0].store(0, std::memory_order_relaxed);
  readers_[1].store(0, std::memory_order_relaxed);
  if (registry != nullptr) {
    latency_ = &registry->histogram("engine.batch_seconds");
    forecasts_ = &registry->counter("engine.forecasts_total");
    batches_ = &registry->counter("engine.batches_total");
    version_gauge_ = &registry->gauge("engine.snapshot_version");
  }
}

void Engine::freeze_into(Snapshot& snap, const std::vector<float>& flat) {
  const std::size_t h = model_.lstm_units;
  const std::size_t in = model_.input_features;
  const std::size_t d = model_.dense_units;
  const std::size_t g4 = 4 * h;

  // Sequential::get_weights layout: layer order, then param order within
  // layer, row-major within each matrix.
  const float* wx = flat.data();
  const float* wh = wx + in * g4;
  const float* b = wh + h * g4;
  const float* w1 = b + g4;
  const float* b1 = w1 + h * d;
  const float* w2 = b1 + d;
  const float* b2 = w2 + d;

  snap.zstride = (g4 + kLineFloats - 1) / kLineFloats * kLineFloats;
  assign_mat(snap.w1, h, d, d, w1);
  assign_mat(snap.b1, 1, d, d, b1);
  assign_mat(snap.w2, d, 1, 1, w2);
  assign_mat(snap.b2, 1, 1, 1, b2);
  assign_mat(snap.wh_pad, h, g4, snap.zstride, wh);
  // Bias and input kernel zero-padded to zstride for the z-init.
  snap.b_pad.assign(snap.zstride, 0.0f);
  std::memcpy(snap.b_pad.data(), b, g4 * sizeof(float));
  snap.wx_pad.assign(in * snap.zstride, 0.0f);
  for (std::size_t f = 0; f < in; ++f) {
    std::memcpy(snap.wx_pad.data() + f * snap.zstride, wx + f * g4,
                g4 * sizeof(float));
  }
}

void Engine::publish(const std::vector<float>& flat_weights) {
  EVFL_REQUIRE(flat_weights.size() == forecaster_param_count(model_),
               "Engine::publish: weight count mismatch (" +
                   std::to_string(flat_weights.size()) + " vs " +
                   std::to_string(forecaster_param_count(model_)) + ")");
  const std::uint32_t next = active_.load(std::memory_order_relaxed) ^ 1u;
  // Drain stragglers still scoring against the slot we are about to
  // overwrite (they acquired it before the previous publish flipped away
  // from it).  Readers never wait; only the publisher does.
  while (readers_[next].load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  freeze_into(slots_[next], flat_weights);
  active_.store(next, std::memory_order_release);
  version_.fetch_add(1, std::memory_order_release);
  if (version_gauge_ != nullptr) {
    version_gauge_->set(static_cast<double>(version()));
  }
}

std::uint32_t Engine::acquire_slot() {
  for (;;) {
    const std::uint32_t idx = active_.load(std::memory_order_acquire);
    readers_[idx].fetch_add(1, std::memory_order_acq_rel);
    // Publish may have flipped between the load and the increment; the
    // re-check makes the registration race-free: once it passes, any
    // publisher targeting this slot will see our count and wait.
    if (active_.load(std::memory_order_acquire) == idx) return idx;
    readers_[idx].fetch_sub(1, std::memory_order_release);
  }
}

void Engine::score(const tensor::Tensor3& x, float* out,
                   const runtime::RunContext* ctx) {
  score_prefix(x, x.batch(), out, ctx);
}

void Engine::score_prefix(const tensor::Tensor3& x, std::size_t rows,
                          float* out, const runtime::RunContext* ctx) {
  EVFL_REQUIRE(version_.load(std::memory_order_acquire) > 0,
               "Engine::score before any publish");
  const std::size_t batch = rows;
  EVFL_REQUIRE(batch > 0, "Engine::score: empty batch");
  EVFL_REQUIRE(batch <= x.batch(),
               "Engine::score_prefix: rows exceed the staging tensor");
  EVFL_REQUIRE(batch <= cfg_.max_batch,
               "Engine::score: batch " + std::to_string(batch) +
                   " exceeds max_batch " + std::to_string(cfg_.max_batch));
  EVFL_REQUIRE(x.features() == model_.input_features,
               "Engine::score: input feature mismatch");
  EVFL_REQUIRE(x.time() > 0, "Engine::score needs time >= 1");

  metrics::WallTimer timer;
  const std::uint32_t slot = acquire_slot();
  const Snapshot& snap = slots_[slot];
  if (ctx != nullptr && ctx->parallel() && batch > 1) {
    // Rows are independent and land at fixed output offsets, so the
    // partition is deterministic regardless of schedule.
    ctx->parallel_for(batch, ctx->grain_for(batch),
                      [&](std::size_t b0, std::size_t b1) {
                        score_rows(snap, x, out, b0, b1);
                      });
  } else {
    score_rows(snap, x, out, 0, batch);
  }
  readers_[slot].fetch_sub(1, std::memory_order_release);

  if (latency_ != nullptr) latency_->record(timer.seconds());
  if (forecasts_ != nullptr) forecasts_->add(static_cast<double>(batch));
  if (batches_ != nullptr) batches_->add(1.0);
}

void Engine::score(const tensor::Tensor3& x, std::vector<float>& out,
                   const runtime::RunContext* ctx) {
  out.resize(x.batch());
  score(x, out.data(), ctx);
}

void Engine::score_rows(const Snapshot& snap, const tensor::Tensor3& x,
                        float* out, std::size_t row_begin,
                        std::size_t row_end) const {
  const std::size_t nb = row_end - row_begin;
  const std::size_t h = model_.lstm_units;
  const std::size_t in = model_.input_features;
  const std::size_t d = model_.dense_units;
  const std::size_t zstride = snap.zstride;
  const std::size_t t_len = x.time();

  // All temporaries come from the calling thread's workspace lane and are
  // released on return — after the lane warms up, scoring never allocates.
  runtime::ScratchScope scratch(runtime::thread_workspace());
  float* z = scratch.borrow(nb * zstride);
  float* hbuf = scratch.borrow_zeroed(nb * h);   // h_0 = 0, like Lstm
  float* cbuf = scratch.borrow_zeroed(nb * h);   // c_0 = 0
  float* d1 = scratch.borrow(nb * d);
  float* o2 = scratch.borrow(nb);

  const ConstMatView hv{hbuf, nb, h, h};
  const ConstMatView whv{snap.wh_pad.data(), h, 4 * h, zstride};
  const MatView zv{z, nb, 4 * h, zstride};
  const float* x0 = x.data() + row_begin * t_len * in;

  // Lstm::forward's step on the serving layout: the shared z-init
  // z = b + x·Wx over the whole padded stride (the padding of b_pad and
  // wx_pad is zero, so z's is too), z += h·Wh (the per-element FMA
  // sequence of tensor::matmul_acc), then the shared row loop of the gate
  // kernel, which updates c in place (cbuf as both c_prev and c).
  for (std::size_t t = 0; t < t_len; ++t) {
    nn::fused_init_z(z, zstride, x0 + t * in, t_len * in, nb, in,
                     snap.b_pad.data(), snap.wx_pad.data(), zstride);
    tensor::matmul_acc(hv, whv, zv);
    nn::lstm_cell_rows<false>(z, zstride, cbuf, cbuf, hbuf, nullptr, h, nb);
  }

  // Dense(d, relu) then Dense(1, linear): zero → matmul_acc → bias →
  // activation, mirroring Dense::forward.
  std::memset(d1, 0, nb * d * sizeof(float));
  const MatView d1v{d1, nb, d, d};
  tensor::matmul_acc(hv, snap.w1.view(), d1v);
  const float* b1p = snap.b1.data();
  for (std::size_t r = 0; r < nb; ++r) {
    float* row = d1 + r * d;
    for (std::size_t c = 0; c < d; ++c) row[c] += b1p[c];
  }
  for (std::size_t r = 0; r < nb; ++r) {
    float* row = d1 + r * d;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = nn::apply_activation(nn::Activation::kRelu, row[c]);
    }
  }

  std::memset(o2, 0, nb * sizeof(float));
  const MatView o2v{o2, nb, 1, 1};
  tensor::matmul_acc(ConstMatView{d1, nb, d, d}, snap.w2.view(), o2v);
  const float b2s = snap.b2(0, 0);
  for (std::size_t r = 0; r < nb; ++r) out[row_begin + r] = o2[r] + b2s;
}

}  // namespace evfl::forecast
