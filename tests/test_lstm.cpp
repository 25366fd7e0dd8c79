#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "forecast/model.hpp"
#include "nn/lstm_kernels.hpp"
#include "nn/sequential.hpp"

namespace evfl::nn {
namespace {

using tensor::Rng;
using tensor::Tensor3;

Tensor3 random_input(std::size_t n, std::size_t t, std::size_t f,
                     std::uint64_t seed) {
  Rng rng(seed);
  Tensor3 x(n, t, f);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  return x;
}

TEST(Lstm, OutputShapes) {
  Rng rng(1);
  Lstm seq(5, true, rng, 2);
  Lstm last(5, false, rng, 2);
  const Tensor3 x = random_input(3, 7, 2, 10);
  const Tensor3 ys = seq.forward(x, false);
  EXPECT_EQ(ys.batch(), 3u);
  EXPECT_EQ(ys.time(), 7u);
  EXPECT_EQ(ys.features(), 5u);
  const Tensor3 yl = last.forward(x, false);
  EXPECT_EQ(yl.batch(), 3u);
  EXPECT_EQ(yl.time(), 1u);
  EXPECT_EQ(yl.features(), 5u);
}

TEST(Lstm, LastStepMatchesFinalSequenceOutput) {
  Rng rng(2);
  Lstm seq(4, true, rng, 3);
  // Copy weights into a last-step twin.
  Rng rng2(3);
  Lstm last(4, false, rng2, 3);
  const Tensor3 x = random_input(2, 6, 3, 11);
  seq.forward(x, false);  // builds weights
  last.forward(x, false);
  // Synchronize weights.
  auto ps = seq.params();
  auto pl = last.params();
  for (std::size_t i = 0; i < ps.size(); ++i) *pl[i].value = *ps[i].value;

  const Tensor3 ys = seq.forward(x, false);
  const Tensor3 yl = last.forward(x, false);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t f = 0; f < 4; ++f) {
      EXPECT_NEAR(ys(n, 5, f), yl(n, 0, f), 1e-6f);
    }
  }
}

TEST(Lstm, ForgetBiasInitializedToOne) {
  Rng rng(4);
  Lstm layer(3, false, rng, 1);
  auto params = layer.params();
  // params: wx, wh, b.  b layout: [i | f | g | o], each 3 wide.
  const Matrix& b = *params[2].value;
  EXPECT_EQ(b(0, 0), 0.0f);  // input gate
  EXPECT_EQ(b(0, 3), 1.0f);  // forget gate
  EXPECT_EQ(b(0, 4), 1.0f);
  EXPECT_EQ(b(0, 6), 0.0f);  // cell candidate
  EXPECT_EQ(b(0, 9), 0.0f);  // output gate
}

TEST(Lstm, DeterministicForward) {
  Rng rng(5);
  Lstm layer(6, true, rng, 2);
  const Tensor3 x = random_input(2, 5, 2, 12);
  const Tensor3 y1 = layer.forward(x, false);
  const Tensor3 y2 = layer.forward(x, false);
  EXPECT_LT(tensor::max_abs_diff(y1, y2), 1e-7f);
}

TEST(Lstm, ZeroWeightsGiveZeroOutput) {
  Rng rng(6);
  Lstm layer(3, false, rng, 1);
  for (auto& p : layer.params()) p.value->set_zero();
  const Tensor3 x = random_input(2, 4, 1, 13);
  const Tensor3 y = layer.forward(x, false);
  // All gates 0.5/0, candidate tanh(0)=0 -> cell stays 0 -> h = 0.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y.data()[i], 0.0f, 1e-7f);
  }
}

TEST(Lstm, OutputBoundedByTanh) {
  Rng rng(7);
  Lstm layer(4, true, rng, 1);
  const Tensor3 x = random_input(2, 10, 1, 14);
  const Tensor3 y = layer.forward(x, false);
  for (std::size_t i = 0; i < y.size(); ++i) {
    // |h| = |o * tanh(c)| <= 1.
    EXPECT_LE(std::abs(y.data()[i]), 1.0f);
  }
}

TEST(Lstm, LongerHistoryChangesOutput) {
  // The recurrence must actually carry state: same final inputs with
  // different prefixes must give different outputs.
  Rng rng(8);
  Lstm layer(4, false, rng, 1);
  Tensor3 a(1, 6, 1), b(1, 6, 1);
  for (std::size_t t = 0; t < 6; ++t) {
    a(0, t, 0) = 0.5f;
    b(0, t, 0) = (t < 3) ? -1.5f : 0.5f;  // different prefix
  }
  const Tensor3 ya = layer.forward(a, false);
  const Tensor3 yb = layer.forward(b, false);
  EXPECT_GT(tensor::max_abs_diff(ya, yb), 1e-4f);
}

TEST(Lstm, BackwardInputGradShape) {
  Rng rng(9);
  Lstm layer(4, true, rng, 3);
  const Tensor3 x = random_input(2, 5, 3, 15);
  const Tensor3 y = layer.forward(x, true);
  Tensor3 g(2, 5, 4);
  const Tensor3 dx = layer.backward(g, /*input_grad=*/true);
  EXPECT_EQ(dx.batch(), 2u);
  EXPECT_EQ(dx.time(), 5u);
  EXPECT_EQ(dx.features(), 3u);
}

TEST(Lstm, BackwardGradShapeMismatchThrows) {
  Rng rng(10);
  Lstm layer(4, false, rng, 2);
  const Tensor3 x = random_input(2, 5, 2, 16);
  layer.forward(x, true);
  Tensor3 bad(2, 5, 4);  // last-step layer expects time == 1
  EXPECT_THROW(layer.backward(bad, /*input_grad=*/true), Error);
}

TEST(Lstm, RejectsChangedInputWidth) {
  Rng rng(11);
  Lstm layer(4, false, rng, 2);
  EXPECT_THROW(layer.forward(random_input(1, 3, 5, 17), false), ShapeError);
}

TEST(Lstm, ParamCountMatchesFormula) {
  Rng rng(12);
  const std::size_t h = 50, in = 1;
  Lstm layer(h, false, rng, in);
  std::size_t total = 0;
  for (auto& p : layer.params()) total += p.value->size();
  EXPECT_EQ(total, in * 4 * h + h * 4 * h + 4 * h);
}

TEST(Lstm, EmptyTimeRejected) {
  Rng rng(13);
  Lstm layer(2, false, rng, 1);
  Tensor3 x(2, 0, 1);
  EXPECT_THROW(layer.forward(x, false), Error);
}

/// Bitwise equality of two float containers (a Tensor3, a Matrix or a
/// vector): EXPECT_EQ would also pass -0 == +0.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Lstm, BatchSizeChangesKeepBitsAndStorage) {
  // A ragged epoch (32 then 20 rows), the next epoch, a one-window predict
  // and a small held-out batch.  Every call must give the bits of a freshly
  // built copy with the same weights, and after the first (the largest
  // batch) the step caches must stay in the same blocks.
  const std::vector<std::size_t> batches = {32, 20, 32, 1, 7};

  // One layer: H = 13 runs 16-row blocks and the row path, and three
  // inputs run the z-init's bias copy and product.
  Rng rng(21);
  Lstm layer(13, /*return_sequences=*/true, rng, 3);
  std::vector<const float*> storage;
  for (const std::size_t n : batches) {
    SCOPED_TRACE("layer, rows " + std::to_string(n));
    const Tensor3 x = random_input(n, 6, 3, 30 + n);
    const Tensor3 g = random_input(n, 6, 13, 40 + n);
    layer.zero_grads();
    const Tensor3 y = layer.forward(x, true);
    const Tensor3 dx = layer.backward(g, /*input_grad=*/true);
    if (storage.empty()) storage = layer.cache_storage();
    EXPECT_EQ(layer.cache_storage(), storage);

    Rng fresh_rng(22);
    Lstm fresh(13, true, fresh_rng, 3);
    const auto src = layer.params();
    const auto dst = fresh.params();
    for (std::size_t i = 0; i < src.size(); ++i) *dst[i].value = *src[i].value;
    EXPECT_TRUE(same_bits(y, fresh.forward(x, true)));
    EXPECT_TRUE(same_bits(dx, fresh.backward(g, /*input_grad=*/true)));
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_TRUE(same_bits(*src[i].grad, *dst[i].grad)) << src[i].name;
    }
  }

  // The paper's forecaster (LSTM 50 on one input, the z-init's single
  // pass, then the Dense head), forward and backward as a client's
  // training step runs them.
  forecast::ForecasterConfig mc;
  mc.sequence_length = 8;
  Rng model_rng(23);
  Sequential model = forecast::make_forecaster(mc, model_rng);
  storage.clear();
  for (const std::size_t n : batches) {
    SCOPED_TRACE("forecaster, rows " + std::to_string(n));
    const Tensor3 x = random_input(n, mc.sequence_length, 1, 50 + n);
    const Tensor3 g = random_input(n, 1, 1, 60 + n);
    model.zero_grads();
    const Tensor3 y = model.forward(x, true);
    const Tensor3 dx = model.backward(g, /*input_grad=*/true);
    const auto& lstm = dynamic_cast<const Lstm&>(model.layer(0));
    if (storage.empty()) storage = lstm.cache_storage();
    EXPECT_EQ(lstm.cache_storage(), storage);

    Rng fresh_rng(24);
    Sequential fresh = forecast::make_forecaster(mc, fresh_rng);
    fresh.set_weights(model.get_weights());
    EXPECT_TRUE(same_bits(y, fresh.forward(x, true)));
    EXPECT_TRUE(same_bits(dx, fresh.backward(g, /*input_grad=*/true)));
    EXPECT_TRUE(same_bits(model.get_grads(), fresh.get_grads()));
  }
}

TEST(LstmKernels, RationalGatesTrackLibm) {
  float worst_tanh = 0.0f, worst_sigmoid = 0.0f;
  for (int i = -2000; i <= 2000; ++i) {
    const float x = static_cast<float>(i) * 0.01f;  // [-20, 20]
    worst_tanh = std::max(worst_tanh, std::fabs(tanh_fast(x) - std::tanh(x)));
    const float sig = 1.0f / (1.0f + std::exp(-x));
    worst_sigmoid = std::max(worst_sigmoid, std::fabs(sigmoid_fast(x) - sig));
  }
  EXPECT_LT(worst_tanh, 1e-6f);
  EXPECT_LT(worst_sigmoid, 1e-6f);
}

TEST(LstmKernels, NanPropagatesInSimdAndTailColumns) {
  // H = 13: columns 0-7 run 8-wide where AVX2+FMA is compiled in, columns
  // 8-12 run the scalar tail.  A NaN pre-activation must come out NaN on
  // both paths (a clamp that swallowed it would turn the gate into ~1).
  const std::size_t h = 13;
  for (std::size_t gate = 0; gate < 4; ++gate) {
    std::vector<float> z(4 * h, 0.25f), c(h, 0.5f), hs(h), ct(h);
    z[gate * h + 3] = std::nanf("");   // SIMD column
    z[gate * h + 10] = std::nanf("");  // tail column
    lstm_cell_row<true>(z.data(), c.data(), c.data(), hs.data(), ct.data(),
                        h);
    for (std::size_t k = 0; k < h; ++k) {
      const bool poisoned = k == 3 || k == 10;
      EXPECT_EQ(std::isnan(hs[k]), poisoned) << "gate " << gate << " col " << k;
      EXPECT_EQ(std::isnan(z[gate * h + k]), poisoned)
          << "gate " << gate << " col " << k;
      if (gate != 3) {  // the output gate does not feed the cell
        EXPECT_EQ(std::isnan(c[k]), poisoned)
            << "gate " << gate << " col " << k;
        EXPECT_EQ(std::isnan(ct[k]), poisoned)
            << "gate " << gate << " col " << k;
      }
    }
  }
}

/// Scalar reference of one step: every element through cell_scalar, the
/// scalar tail's operations.
template <bool kStore>
void scalar_cell_rows(float* z, std::size_t zstride, const float* cp,
                      float* c, float* hs, float* ct, std::size_t h,
                      std::size_t rows) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < h; ++k) {
      detail::cell_scalar<kStore>(z + r * zstride, cp + r * h, c + r * h,
                                  hs + r * h, kStore ? ct + r * h : ct, h, k);
    }
  }
}

/// lstm_cell_rows against scalar_cell_rows at one shape, bit for bit, with
/// c_prev and c one buffer (the engine's update in place) or two (training,
/// which reads one step's cache and writes the next's; c_prev must come
/// out untouched).
template <bool kStore>
void expect_rows_kernel_matches_scalar(std::size_t h, std::size_t rows,
                                       bool in_place) {
  SCOPED_TRACE("h " + std::to_string(h) + ", rows " + std::to_string(rows) +
               (kStore ? ", store" : ", serve") +
               (in_place ? ", in place" : ", separate c_prev"));
  // The serving layout's padded stride for kStore = false, like the engine.
  const std::size_t zstride = kStore ? 4 * h : (4 * h + 15) / 16 * 16;
  Rng rng(100 + h * 64 + rows);
  std::vector<float> z(rows * zstride), cp(rows * h);
  for (float& v : z) v = rng.uniform(-6.0f, 6.0f);
  for (float& v : cp) v = rng.uniform(-2.0f, 2.0f);
  const std::vector<float> cp_before = cp;
  std::vector<float> z_ref = z, c_ref(rows * h);
  std::vector<float> hs(rows * h), hs_ref(rows * h);
  std::vector<float> ct(rows * h), ct_ref(rows * h);
  std::vector<float> c = in_place ? cp : std::vector<float>(rows * h, 9.0f);
  lstm_cell_rows<kStore>(z.data(), zstride, in_place ? c.data() : cp.data(),
                         c.data(), hs.data(), kStore ? ct.data() : nullptr, h,
                         rows);
  scalar_cell_rows<kStore>(z_ref.data(), zstride, cp_before.data(),
                           c_ref.data(), hs_ref.data(),
                           kStore ? ct_ref.data() : nullptr, h, rows);
  EXPECT_TRUE(same_bits(hs, hs_ref));
  EXPECT_TRUE(same_bits(c, c_ref));
  EXPECT_TRUE(same_bits(z, z_ref));
  EXPECT_TRUE(same_bits(ct, ct_ref));
  if (!in_place) {
    EXPECT_TRUE(same_bits(cp, cp_before));
  }
}

TEST(LstmKernels, RowsKernelMatchesScalarOnEveryPath) {
  // Where the target has AVX-512F, lstm_cell_rows runs 16-lane groups,
  // 8-lane groups, row pairs (H % 16 >= 8, see pair_rows), 16-row blocks
  // whose H % 8 last columns run across rows, and lone rows; every
  // element must get the scalar tail's bits on each.  H: 1 and 7 only
  // scalar, 8 and 9 pairs, 13 pairs inside a block with 5 columns across
  // rows and the row path outside blocks, 16
  // one 16-lane group, 24/25 16 + 8 (+ 1), 29 16 + 8 + 5, 40 paired after
  // two 16-lane groups, 50 the paper's 3·16 + 2.  Rows: 1 and 2 (no
  // block), 15, 16, 17 (a block and a lone row), 35 (two blocks, a pair
  // where pairs run, and a lone row).  Every shape runs with c_prev as c
  // and as a separate buffer.
  for (const std::size_t h : {1, 7, 8, 9, 13, 16, 24, 25, 29, 40, 50}) {
    for (const std::size_t rows : {1, 2, 15, 16, 17, 35}) {
      for (const bool in_place : {true, false}) {
        expect_rows_kernel_matches_scalar<true>(h, rows, in_place);
        expect_rows_kernel_matches_scalar<false>(h, rows, in_place);
      }
    }
  }
}

TEST(LstmKernels, NanPropagatesThroughEveryRowPath) {
  // H = 25 (16 + 8 + 1), 19 rows: rows 0-15 a block (column 24 across
  // rows), rows 16-17 a pair, row 18 alone.  A NaN pre-activation in a
  // 16-lane group, an 8-lane group of a block row and of the pair, the
  // across-rows column and the lone row's tail must come out NaN there
  // and nowhere else, with c_prev as c and as a separate buffer, which
  // must come out untouched.
  const std::size_t h = 25, rows = 19, zstride = 4 * h;
  const std::vector<std::pair<std::size_t, std::size_t>> poisoned = {
      {0, 3}, {5, 24}, {9, 20}, {17, 20}, {16, 1}, {18, 10}, {18, 24}};
  for (const bool in_place : {true, false}) {
    SCOPED_TRACE(in_place ? "in place" : "separate c_prev");
    for (std::size_t gate = 0; gate < 4; ++gate) {
      std::vector<float> z(rows * zstride, 0.25f), cp(rows * h, 0.5f);
      std::vector<float> c = in_place ? cp : std::vector<float>(rows * h, 9.0f);
      std::vector<float> hs(rows * h), ct(rows * h);
      for (const auto& [r, k] : poisoned) {
        z[r * zstride + gate * h + k] = std::nanf("");
      }
      lstm_cell_rows<true>(z.data(), zstride, in_place ? c.data() : cp.data(),
                           c.data(), hs.data(), ct.data(), h, rows);
      if (!in_place) {
        EXPECT_TRUE(same_bits(cp, std::vector<float>(rows * h, 0.5f)));
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < h; ++k) {
          const bool nan = std::find(poisoned.begin(), poisoned.end(),
                                     std::make_pair(r, k)) != poisoned.end();
          EXPECT_EQ(std::isnan(hs[r * h + k]), nan)
              << "gate " << gate << " row " << r << " col " << k;
          EXPECT_EQ(std::isnan(z[r * zstride + gate * h + k]), nan)
              << "gate " << gate << " row " << r << " col " << k;
          if (gate != 3) {  // the output gate does not feed the cell
            EXPECT_EQ(std::isnan(c[r * h + k]), nan)
                << "gate " << gate << " row " << r << " col " << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace evfl::nn
