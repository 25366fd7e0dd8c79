// The runtime execution-context layer: pool semantics, the determinism
// contract (parallel == serial, bit for bit) across tensor kernels, the
// trainer, and the pipeline, plus driver degradation under loss/stragglers.
#include "runtime/run_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/pipeline.hpp"
#include "faults/fault_injector.hpp"
#include "fl/driver.hpp"
#include "forecast/model.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/lstm_kernels.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "runtime/workspace.hpp"
#include "tensor/init.hpp"
#include "tensor/linalg.hpp"

namespace evfl::runtime {
namespace {

using tensor::Matrix;
using tensor::Rng;
using tensor::Tensor3;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// ---- ThreadPool / parallel_for ---------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneThreadPoolIsTheSerialPath) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  // No workers: chunks must run in order on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, 3, [&](std::size_t begin, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(begin);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 6, 9}));
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t begin, std::size_t) {
                          if (begin == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a throwing loop.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(50, 5, [&](std::size_t begin, std::size_t end) {
    total += end - begin;
  });
  EXPECT_EQ(total.load(), 50u);
}

TEST(RunContext, SerialDefaultAndGrainFloor) {
  RunContext ctx;  // no pool, no metrics
  EXPECT_EQ(ctx.concurrency(), 1u);
  EXPECT_FALSE(ctx.parallel());
  EXPECT_GE(ctx.grain_for(0), 1u);
  std::size_t calls = 0, covered = 0;
  ctx.parallel_for(17, 4, [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
  });
  // Serial context runs one body call over the whole range.
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(covered, 17u);
  ctx.count("noop");  // metrics-free context: must not crash
}

TEST(RunContext, MetricsAccumulateThreadSafely) {
  ThreadPool pool(4);
  obs::Registry registry;
  RunContext ctx{&pool, &registry};
  ctx.parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ctx.count("ticks");
  });
  EXPECT_DOUBLE_EQ(registry.counter("ticks").value(), 100.0);
  EXPECT_DOUBLE_EQ(registry.counter("never_touched").value(), 0.0);
}

TEST(RunContext, SplitRngsMatchesSequentialSplits) {
  Rng a(123), b(123);
  std::vector<Rng> pre = split_rngs(a, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    Rng child = b.split();
    EXPECT_EQ(pre[i].engine()(), child.engine()());
  }
  // The parent stream advanced identically.
  EXPECT_EQ(a.engine()(), b.engine()());
}

// ---- context-aware tensor kernels ------------------------------------------

TEST(ContextMatmul, BitIdenticalToSerialKernels) {
  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  const Matrix a = random_matrix(61, 47, 1);
  const Matrix b = random_matrix(47, 53, 2);

  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul(a, b),
                                 tensor::matmul(a, b, ctx)),
            0.0f);
  // matmul_tn computes aᵀ·b: operands share their leading (k) dimension.
  const Matrix at = random_matrix(47, 61, 4);
  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_tn(at, b),
                                 tensor::matmul_tn(at, b, ctx)),
            0.0f);
  const Matrix bt = random_matrix(53, 47, 3);
  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_nt(a, bt),
                                 tensor::matmul_nt(a, bt, ctx)),
            0.0f);
}

TEST(ContextMatmul, ShapeChecked) {
  ThreadPool pool(2);
  RunContext ctx{&pool, nullptr};
  const Matrix a(4, 3), b(5, 6);
  Matrix c(4, 6);
  EXPECT_THROW(tensor::matmul_acc(a, b, c, ctx), ShapeError);
}

// ---- Workspace arena --------------------------------------------------------

TEST(Workspace, RewindReusesMemoryWithoutMoving) {
  Workspace ws;
  float* base = ws.borrow(100);
  base[0] = 1.0f;
  const Workspace::Mark m = ws.mark();
  float* scratch = ws.borrow(200);
  scratch[0] = 2.0f;
  ws.rewind(m);
  // The next borrow reuses the rewound region; earlier borrows are intact.
  EXPECT_EQ(ws.borrow(50), scratch);
  EXPECT_EQ(base[0], 1.0f);
}

TEST(Workspace, PointersSurviveBlockGrowth) {
  Workspace ws;
  float* early = ws.borrow_zeroed(64);
  early[0] = 42.0f;
  // Force several new blocks; existing blocks must never move or shrink.
  for (int i = 0; i < 4; ++i) ws.borrow(1u << 18);
  EXPECT_EQ(early[0], 42.0f);
  EXPECT_GT(ws.capacity_floats(), 1u << 18);
  ws.reset();
  EXPECT_EQ(ws.borrow(1), early);  // reset rewinds to the first block
}

TEST(Workspace, BorrowsAreAlignedAndHighWaterTracksPeak) {
  const auto line_offset = [](const float* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64;
  };
  Workspace ws;
  float* a = ws.borrow(1);
  float* b = ws.borrow(1);
  // Requests round up to 16-float (64-byte) lanes, so consecutive borrows
  // never share a cache line, and every lane starts on one.
  EXPECT_EQ(b - a, 16);
  EXPECT_EQ(line_offset(a), 0u);
  EXPECT_EQ(line_offset(b), 0u);
  // Borrows larger than the first block make new blocks; they start on a
  // line too, and so do the lanes after them.
  for (const std::size_t n : {std::size_t{70000}, std::size_t{3},
                              std::size_t{300000}, std::size_t{17}}) {
    EXPECT_EQ(line_offset(ws.borrow(n)), 0u) << n << " floats";
  }
  const std::size_t peak = ws.high_water_floats();
  EXPECT_GE(peak, 2u);
  ws.reset();
  EXPECT_EQ(line_offset(ws.borrow(1)), 0u);
  EXPECT_EQ(ws.high_water_floats(), peak);  // high water never rewinds
}

TEST(Workspace, ScratchScopeRewindsOnUnwind) {
  Workspace ws;
  float* p1 = nullptr;
  {
    ScratchScope scope(ws);
    p1 = scope.borrow_zeroed(128);
    EXPECT_EQ(p1[127], 0.0f);
  }
  ScratchScope scope(ws);
  EXPECT_EQ(scope.borrow(16), p1);  // the scope released its borrows
}

TEST(Workspace, ThreadLanesAreDistinct) {
  Workspace* main_lane = &thread_workspace();
  Workspace* worker_lane = nullptr;
  std::thread t([&] { worker_lane = &thread_workspace(); });
  t.join();
  ASSERT_NE(worker_lane, nullptr);
  EXPECT_NE(main_lane, worker_lane);
  EXPECT_EQ(main_lane, &thread_workspace());  // stable per thread
}

// ---- GEMM kernels vs the determinism contract -------------------------------

// The contract written as plainly as possible: every output element starts
// from its C value and accumulates std::fma(A(i,k), B(k,j), acc) over
// ascending k.  The register-blocked kernels in tensor/matrix.cpp must
// reproduce it bit for bit, whatever tile, row partition, thread count,
// SIMD lane or masked tail computes the element.
void naive_matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float acc = c(i, j);
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        acc = std::fma(a(i, kk), b(kk, j), acc);
      }
      c(i, j) = acc;
    }
  }
}

void naive_matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float acc = c(i, j);
      for (std::size_t kk = 0; kk < a.rows(); ++kk) {
        acc = std::fma(a(kk, i), b(kk, j), acc);
      }
      c(i, j) = acc;
    }
  }
}

void naive_matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float acc = c(i, j);
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        acc = std::fma(a(i, kk), b(j, kk), acc);
      }
      c(i, j) = acc;
    }
  }
}

/// Exact zeros sprinkled in: a zero product keeps its place in the FMA
/// chain (skipping it would hide 0·Inf = NaN and can change a zero's sign).
Matrix random_sparse_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m = random_matrix(r, c, seed);
  for (std::size_t i = 0; i < m.size(); i += 13) m.data()[i] = 0.0f;
  return m;
}

TEST(BlockedMatmul, BitIdenticalToNaiveAcrossThreadCounts) {
  // 93 rows = 23 four-row tiles + a single-row tail; 150 cols = 9 full
  // 16-column panels + a masked 6-column tail.  The 4-thread partition
  // cuts row tiles at other places than the serial run does.
  const Matrix a = random_sparse_matrix(93, 70, 21);   // [m, k]
  const Matrix b = random_sparse_matrix(70, 150, 22);  // [k, n]
  const Matrix at = random_sparse_matrix(70, 93, 23);  // [k, m] for tn
  const Matrix bt = random_sparse_matrix(150, 70, 24); // [n, k] for nt

  Matrix c_naive(93, 150), c_tn_naive(93, 150), c_nt_naive(93, 150);
  naive_matmul_acc(a, b, c_naive);
  naive_matmul_tn_acc(at, b, c_tn_naive);
  naive_matmul_nt_acc(a, bt, c_nt_naive);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    RunContext ctx{&pool, nullptr};
    Matrix c(93, 150);
    tensor::matmul_acc(a, b, c, ctx);
    EXPECT_EQ(tensor::max_abs_diff(c, c_naive), 0.0f) << threads << " threads";

    c.set_zero();
    tensor::matmul_tn_acc(at, b, c, ctx);
    EXPECT_EQ(tensor::max_abs_diff(c, c_tn_naive), 0.0f)
        << threads << " threads";

    c.set_zero();
    tensor::matmul_nt_acc(a, bt, c, ctx);
    EXPECT_EQ(tensor::max_abs_diff(c, c_nt_naive), 0.0f)
        << threads << " threads";
  }

  // The serial Matrix overloads hit the same kernel bodies.
  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul(a, b), c_naive), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_tn(at, b), c_tn_naive), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_nt(a, bt), c_nt_naive), 0.0f);
}

TEST(BlockedMatmul, EveryColumnTailMatchesNaive) {
  // Column counts around the 8-, 16-, 32- and 64-lane boundaries of both
  // tile widths, up to 4H at H = 25 and 50, each through all three
  // products, with non-zero C so the chain starts from C.  15 rows = an
  // 8-row and a 4-row tile (8 × 32 and 4 × 32 from n = 17 where the
  // target has 16 lanes; three 4 × 16 tiles on AVX2), a 2-row and a 1-row
  // block (16 lanes from n = 64 where the target has them), each with its
  // own column tiling.  The columns after the full tiles are one tile of
  // 1-4 vectors, the last masked when partial; this list reaches every
  // (lanes, rows, vectors, masked) tile of both the AVX-512 and the
  // AVX2-only build, e.g. the 2-, 3- and 4-vector masked ones at n = 25,
  // 31, 63, 90, 100 and 120 and the 3-vector unmasked ones at 24 and 112.
  for (const std::size_t n : {1, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 47,
                              48, 63, 64, 65, 80, 90, 96, 100, 112, 120,
                              200}) {
    const Matrix a = random_sparse_matrix(15, 13, 40 + n);
    const Matrix b = random_sparse_matrix(13, n, 50 + n);
    const Matrix at = random_sparse_matrix(13, 15, 60 + n);
    const Matrix bt = random_sparse_matrix(n, 13, 70 + n);
    const Matrix c0 = random_matrix(15, n, 80 + n);

    Matrix want = c0, got = c0;
    naive_matmul_acc(a, b, want);
    tensor::matmul_acc(a, b, got);
    EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0f) << "nn n=" << n;

    want = c0;
    got = c0;
    naive_matmul_tn_acc(at, b, want);
    tensor::matmul_tn_acc(at, b, got);
    EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0f) << "tn n=" << n;

    want = c0;
    got = c0;
    naive_matmul_nt_acc(a, bt, want);
    tensor::matmul_nt_acc(a, bt, got);
    EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0f) << "nt n=" << n;
  }
}

TEST(BlockedMatmul, EightRowTilesMatchNaiveAcrossThreadCounts) {
  // Where the target has 16 lanes, whole groups of eight rows run 8 × 32
  // tiles once n > 16, the group of four after them 4 × 32, and the 1-3
  // rows left 2- and 1-row tiles: m = 8 is one 8-row group, 12 and 13 add
  // a 4-row group (and a lone row), 15 runs 8 + 4 + 2 + 1, and 50 six
  // 8-row groups and a 2-row remainder.  n = 17, 25, 50 and 200 end every
  // row block in a masked tail.  m = 1 is a lone row and m = 0 an empty
  // range, which must leave C as it is.  The 4-thread partition cuts the
  // row groups at other places than the serial run does.  n = 8, 13 and
  // 16 run the 8-lane 8 × 16 tiles that targets with 16 lanes use for
  // whole 8-row groups up to 16 columns (8 × 8, masked 8 × 16, 8 × 16).
  for (const std::size_t m : {0, 1, 8, 12, 13, 15, 50}) {
    for (const std::size_t n : {8, 13, 16, 17, 25, 50, 200}) {
      SCOPED_TRACE("m " + std::to_string(m) + ", n " + std::to_string(n));
      const std::size_t k = 19;
      const Matrix a = random_sparse_matrix(m, k, 90 + m * n);
      const Matrix b = random_sparse_matrix(k, n, 91 + m * n);
      const Matrix at = random_sparse_matrix(k, m, 92 + m * n);
      const Matrix bt = random_sparse_matrix(n, k, 93 + m * n);
      const Matrix c0 = random_matrix(m, n, 94 + m * n);
      Matrix want = c0, want_tn = c0, want_nt = c0;
      naive_matmul_acc(a, b, want);
      naive_matmul_tn_acc(at, b, want_tn);
      naive_matmul_nt_acc(a, bt, want_nt);

      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(threads);
        RunContext ctx{&pool, nullptr};
        Matrix got = c0;
        tensor::matmul_acc(a, b, got, ctx);
        EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0f)
            << "nn, " << threads << " threads";
        got = c0;
        tensor::matmul_tn_acc(at, b, got, ctx);
        EXPECT_EQ(tensor::max_abs_diff(got, want_tn), 0.0f)
            << "tn, " << threads << " threads";
        got = c0;
        tensor::matmul_nt_acc(a, bt, got, ctx);
        EXPECT_EQ(tensor::max_abs_diff(got, want_nt), 0.0f)
            << "nt, " << threads << " threads";
      }
    }
  }
}

TEST(BlockedMatmul, StridedGateViewsMatchFullMatrixKernels) {
  // Writing into a column block of a wider matrix through a strided view
  // must equal computing into a dense matrix and copying the block in.
  const std::size_t n = 9, k = 7, h = 40;  // gate blocks end in 8 columns
  const Matrix a = random_matrix(n, k, 31);
  const Matrix w = random_matrix(k, 4 * h, 32);
  Matrix fused(n, 4 * h);
  fused.set_zero();
  for (std::size_t g = 0; g < 4; ++g) {
    const tensor::ConstMatView wg{w.data() + g * h, k, h, 4 * h};
    tensor::MatView out = fused.col_block(g * h, h);
    tensor::matmul_acc(a.view(), wg, out);
  }
  Matrix dense(n, 4 * h);
  naive_matmul_acc(a, w, dense);
  EXPECT_EQ(tensor::max_abs_diff(fused, dense), 0.0f);
}

// ---- LSTM fused fast path vs the reference algorithm ------------------------

/// The seed's LSTM algorithm with per-gate Matrix temporaries, rebuilt on
/// the naive FMA kernels above and the scalar shared gate functions — what
/// the fused/workspace path in nn/lstm.cpp (blocked kernels, SIMD gates)
/// must reproduce float-for-float (forward, BPTT, and parameter grads).
class ReferenceLstm {
 public:
  ReferenceLstm(std::size_t units, Rng& rng, std::size_t input_features)
      : units_(units) {
    const std::size_t h = units;
    wx_ = tensor::glorot_uniform(input_features, 4 * h, rng);
    wh_ = Matrix(h, 4 * h);
    for (std::size_t g = 0; g < 4; ++g) {
      const Matrix block = tensor::orthogonal(h, h, rng);
      for (std::size_t r = 0; r < h; ++r) {
        for (std::size_t c = 0; c < h; ++c) wh_(r, g * h + c) = block(r, c);
      }
    }
    b_ = Matrix(1, 4 * h);
    for (std::size_t c = 0; c < h; ++c) b_(0, h + c) = 1.0f;
    gwx_ = Matrix(input_features, 4 * h);
    gwh_ = Matrix(h, 4 * h);
    gb_ = Matrix(1, 4 * h);
  }

  Tensor3 forward(const Tensor3& input) {
    const std::size_t n = input.batch(), t_len = input.time(), h = units_;
    cached_n_ = n;
    cached_in_ = input.features();
    cache_.assign(t_len, Step{});
    Matrix h_state(n, h), c_state(n, h);
    Tensor3 out(n, 1, h);
    for (std::size_t t = 0; t < t_len; ++t) {
      Step& sc = cache_[t];
      sc.x = input.timestep(t);
      sc.h_prev = h_state;
      sc.c_prev = c_state;
      Matrix z(n, 4 * h);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < 4 * h; ++c) z(r, c) = b_(0, c);
      }
      naive_matmul_acc(sc.x, wx_, z);
      naive_matmul_acc(sc.h_prev, wh_, z);
      sc.i = gate_block(z, 0, nn::sigmoid_fast);
      sc.f = gate_block(z, 1, nn::sigmoid_fast);
      sc.g = gate_block(z, 2, nn::tanh_fast);
      sc.o = gate_block(z, 3, nn::sigmoid_fast);
      for (std::size_t idx = 0; idx < n * h; ++idx) {
        c_state.data()[idx] =
            std::fma(sc.f.data()[idx], sc.c_prev.data()[idx],
                     sc.i.data()[idx] * sc.g.data()[idx]);
      }
      sc.c_tanh = c_state;
      for (std::size_t idx = 0; idx < n * h; ++idx) {
        sc.c_tanh.data()[idx] = nn::tanh_fast(sc.c_tanh.data()[idx]);
      }
      for (std::size_t idx = 0; idx < n * h; ++idx) {
        h_state.data()[idx] = sc.o.data()[idx] * sc.c_tanh.data()[idx];
      }
    }
    out.set_timestep(0, h_state);
    return out;
  }

  Tensor3 backward(const Tensor3& grad_output) {
    const std::size_t n = cached_n_, t_len = cache_.size(), h = units_;
    Tensor3 dx(n, t_len, cached_in_);
    Matrix dh_next(n, h), dc_next(n, h);
    for (std::size_t ti = t_len; ti-- > 0;) {
      const Step& sc = cache_[ti];
      Matrix dh = dh_next;
      if (ti == t_len - 1) dh += grad_output.timestep(0);
      Matrix dc(n, h);
      for (std::size_t idx = 0; idx < n * h; ++idx) {
        const float ct = sc.c_tanh.data()[idx];
        dc.data()[idx] = dh.data()[idx] * sc.o.data()[idx] * (1.0f - ct * ct) +
                         dc_next.data()[idx];
      }
      Matrix dz(n, 4 * h);
      for (std::size_t r = 0; r < n; ++r) {
        float* dzrow = dz.row(r);
        for (std::size_t c = 0; c < h; ++c) {
          const std::size_t idx = r * h + c;
          const float i = sc.i.data()[idx], f = sc.f.data()[idx];
          const float g = sc.g.data()[idx], o = sc.o.data()[idx];
          const float dci = dc.data()[idx];
          dzrow[c] = dci * g * i * (1.0f - i);
          dzrow[h + c] = dci * sc.c_prev.data()[idx] * f * (1.0f - f);
          dzrow[2 * h + c] = dci * i * (1.0f - g * g);
          dzrow[3 * h + c] =
              dh.data()[idx] * sc.c_tanh.data()[idx] * o * (1.0f - o);
        }
      }
      naive_matmul_tn_acc(sc.x, dz, gwx_);
      naive_matmul_tn_acc(sc.h_prev, dz, gwh_);
      // Seed order: column sums land in a zeroed temporary first, then the
      // whole row adds into gb_ (gb_ += dz.col_sums()).
      Matrix col_sums(1, 4 * h);
      for (std::size_t r = 0; r < n; ++r) {
        const float* dzrow = dz.row(r);
        for (std::size_t c = 0; c < 4 * h; ++c) col_sums(0, c) += dzrow[c];
      }
      gb_ += col_sums;
      Matrix dxt(n, cached_in_);
      naive_matmul_nt_acc(dz, wx_, dxt);
      dx.set_timestep(ti, dxt);
      dh_next = Matrix(n, h);
      naive_matmul_nt_acc(dz, wh_, dh_next);
      for (std::size_t idx = 0; idx < n * h; ++idx) {
        dc_next.data()[idx] = dc.data()[idx] * sc.f.data()[idx];
      }
    }
    return dx;
  }

  void zero_grads() {
    gwx_.set_zero();
    gwh_.set_zero();
    gb_.set_zero();
  }

  std::vector<nn::ParamRef> params() {
    return {{"lstm.wx", &wx_, &gwx_},
            {"lstm.wh", &wh_, &gwh_},
            {"lstm.b", &b_, &gb_}};
  }

  Matrix wx_, wh_, b_, gwx_, gwh_, gb_;

 private:
  struct Step {
    Matrix x, h_prev, c_prev, i, f, g, o, c_tanh;
  };

  /// Gate block g of the pre-activation z, activated.
  Matrix gate_block(const Matrix& z, std::size_t g, float (*act)(float)) const {
    const std::size_t h = units_;
    Matrix out(z.rows(), h);
    for (std::size_t r = 0; r < z.rows(); ++r) {
      const float* src = z.row(r) + g * h;
      float* dst = out.row(r);
      for (std::size_t c = 0; c < h; ++c) dst[c] = act(src[c]);
    }
    return out;
  }

  std::size_t units_;
  std::size_t cached_n_ = 0, cached_in_ = 0;
  std::vector<Step> cache_;
};

/// Forward, BPTT and three Adam steps of nn::Lstm against ReferenceLstm at
/// one shape, every output, gradient and weight compared bit for bit.
void expect_lstm_matches_reference(std::size_t units, std::size_t in,
                                   std::size_t n = 70) {
  SCOPED_TRACE("units " + std::to_string(units) + ", input " +
               std::to_string(in) + ", batch " + std::to_string(n));
  const std::size_t t = 5;
  Rng rng_new(42), rng_ref(42);
  nn::Lstm lstm(units, /*return_sequences=*/false, rng_new, in);
  ReferenceLstm ref(units, rng_ref, in);

  Rng data_rng(7);
  Tensor3 x(n, t, in);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = data_rng.uniform(0, 1);
  }
  Tensor3 g(n, 1, units);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.data()[i] = data_rng.uniform(-1, 1);
  }

  nn::Adam opt_new(1e-3f), opt_ref(1e-3f);
  for (int step = 0; step < 3; ++step) {
    const Tensor3 out_new = lstm.forward(x, /*training=*/true);
    const Tensor3 out_ref = ref.forward(x);
    EXPECT_EQ(tensor::max_abs_diff(out_new, out_ref), 0.0f)
        << "forward diverged at step " << step;

    lstm.zero_grads();
    ref.zero_grads();
    const Tensor3 dx_new = lstm.backward(g, /*input_grad=*/true);
    const Tensor3 dx_ref = ref.backward(g);
    EXPECT_EQ(tensor::max_abs_diff(dx_new, dx_ref), 0.0f)
        << "dx diverged at step " << step;

    auto p_new = lstm.params();
    auto p_ref = ref.params();
    ASSERT_EQ(p_new.size(), p_ref.size());
    for (std::size_t p = 0; p < p_new.size(); ++p) {
      EXPECT_EQ(tensor::max_abs_diff(*p_new[p].grad, *p_ref[p].grad), 0.0f)
          << p_new[p].name << " grad diverged at step " << step;
    }
    opt_new.step(p_new);
    opt_ref.step(p_ref);
    for (std::size_t p = 0; p < p_new.size(); ++p) {
      EXPECT_EQ(tensor::max_abs_diff(*p_new[p].value, *p_ref[p].value), 0.0f)
          << p_new[p].name << " weights diverged at step " << step;
    }
  }
}

TEST(LstmBitIdentity, FusedPathMatchesSeedAlgorithmOverTrainingSteps) {
  // Batch 70 = 17 four-row tiles and a 2-row tail.  Units 40, input 3:
  // 4H = 160 columns, gate gradients in five whole 8-lane groups.  The
  // autoencoder's last LSTM (units 50, input 25): the gate-gradient
  // kernel's scalar tail runs (50 = 6·8 + 2), dZ·Wxᵀ and dZ·Whᵀ run the
  // masked multi-vector tiles at 25 and 50 columns, and xᵀ·dZ has 25 rows.
  expect_lstm_matches_reference(40, 3);
  expect_lstm_matches_reference(50, 25);
  // Where the target has AVX-512F: the fleet leaf's units 8 run every
  // forward row pair-wise, and at units 25 the forward runs two 16-row
  // blocks with column 24 across rows, then two row pairs with their
  // scalar tails; in both the 37th row runs alone, and the gate gradients
  // run row by row.  One input feature takes the strided timestep copy
  // and the 8-row 8-lane tiles of dZ·Wxᵀ (n = 1).
  expect_lstm_matches_reference(8, 1, 37);
  expect_lstm_matches_reference(25, 1, 37);
}

TEST(LstmBitIdentity, BatchRowMatchesRowForwardedAlone) {
  // Row i of a 71-row forward (8-row GEMM tiles plus 4-, 2- and 1-row
  // ones) equals that row forwarded alone, at every timestep, whether its
  // gates ran paired, across rows or alone.  H = 13 puts gate columns in
  // an 8-wide SIMD group and in the scalar tail (where the target has
  // AVX-512F, rows 0-63 in 16-row blocks with 5 columns across rows);
  // H = 8 runs rows in pairs and the 71st alone; H = 25 runs four blocks
  // (column 24 across rows), three pairs and a lone row.
  for (const std::size_t units : {13, 8, 25}) {
    SCOPED_TRACE("units " + std::to_string(units));
    const std::size_t in = 3, n = 71, t = 5;
    Rng rng(42);
    nn::Lstm lstm(units, /*return_sequences=*/true, rng, in);
    Rng data_rng(9);
    Tensor3 x(n, t, in);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = data_rng.uniform(-1, 1);
    }
    const Tensor3 whole = lstm.forward(x, /*training=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      const Tensor3 alone = lstm.forward(x.batch_slice(i, i + 1), false);
      for (std::size_t s = 0; s < t; ++s) {
        for (std::size_t c = 0; c < units; ++c) {
          ASSERT_EQ(whole(i, s, c), alone(0, s, c))
              << "row " << i << " step " << s << " unit " << c;
        }
      }
    }
  }
}

TEST(LstmBitIdentity, TrainingUnderParallelContextMatchesSerial) {
  // fit() keeps weight updates sequential and only parallelizes validation
  // scoring; final weights must be bit-identical for threads {1, N}.
  auto train = [](const RunContext* ctx) {
    Rng rng(42);
    nn::Sequential model;
    model.emplace<nn::Lstm>(8, /*return_sequences=*/false, rng, 1);
    model.emplace<nn::Dense>(4, nn::Activation::kRelu, rng, 8);
    model.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 4);
    nn::MseLoss loss;
    nn::Adam opt(1e-3f);
    nn::Trainer trainer(model, loss, opt, rng);
    Rng d(7);
    Tensor3 x(48, 12, 1), y(48, 1, 1);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = d.uniform(0, 1);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = d.uniform(0, 1);
    nn::FitConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 16;
    trainer.fit(x, y, cfg, &x, &y, ctx);
    return model.get_weights();
  };
  const std::vector<float> serial = train(nullptr);
  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  const std::vector<float> parallel = train(&ctx);
  EXPECT_EQ(serial, parallel);
}

// ---- model clones & parallel inference -------------------------------------

TEST(CloneAndPredict, ParallelInferenceBitIdentical) {
  Rng rng(11);
  forecast::ForecasterConfig cfg;
  cfg.sequence_length = 8;
  cfg.lstm_units = 6;
  cfg.dense_units = 3;
  nn::Sequential model = forecast::make_forecaster(cfg, rng);

  Tensor3 x(40, 8, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);

  const Tensor3 serial = nn::predict_batched(model, x, 8);

  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  const Tensor3 parallel = nn::predict_batched(model, x, 8, &ctx);
  EXPECT_EQ(tensor::max_abs_diff(serial, parallel), 0.0f);
}

TEST(CloneAndPredict, ParallelEvaluateBitIdentical) {
  Rng rng(12);
  nn::Sequential model;
  model.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
  nn::MseLoss loss;
  nn::Adam opt(1e-3f);
  nn::Trainer trainer(model, loss, opt, rng);

  Tensor3 x(100, 1, 1), y(100, 1, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0, 0) = rng.uniform(-1, 1);
    y(i, 0, 0) = 2.0f * x(i, 0, 0);
  }
  const float serial = trainer.evaluate(x, y, 16);

  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  const float parallel = trainer.evaluate(x, y, 16, &ctx);
  EXPECT_EQ(serial, parallel);
}

TEST(CloneAndPredict, CloneIsIndependent) {
  Rng rng(13);
  nn::Sequential model;
  model.emplace<nn::Dense>(2, nn::Activation::kRelu, rng, 3);
  Tensor3 x(4, 1, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  model.forward(x, false);  // build lazily-created weights

  nn::Sequential copy = model.clone();
  EXPECT_EQ(model.get_weights(), copy.get_weights());
  // Mutating the clone must not touch the original.
  std::vector<float> w = copy.get_weights();
  for (float& v : w) v += 1.0f;
  copy.set_weights(w);
  EXPECT_NE(model.get_weights(), copy.get_weights());
}

// ---- Tensor3 bulk copies ----------------------------------------------------

TEST(Tensor3Copy, CopyBatchIntoMatchesElementwise) {
  Rng rng(14);
  Tensor3 src(3, 4, 2);
  for (std::size_t i = 0; i < src.size(); ++i) src.data()[i] = rng.normal();
  Tensor3 dst(8, 4, 2);
  src.copy_batch_into(dst, 5);
  for (std::size_t n = 0; n < 3; ++n) {
    for (std::size_t t = 0; t < 4; ++t) {
      for (std::size_t f = 0; f < 2; ++f) {
        EXPECT_EQ(dst(5 + n, t, f), src(n, t, f));
      }
    }
  }
  EXPECT_EQ(dst(0, 0, 0), 0.0f);  // untouched region stays zero
  Tensor3 wrong(3, 5, 2);
  EXPECT_THROW(wrong.copy_batch_into(dst, 0), ShapeError);
  EXPECT_THROW(src.copy_batch_into(dst, 6), Error);
}

// ---- pipeline determinism ---------------------------------------------------

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.generator.hours = 480;
  cfg.ddos.bursts = 6;
  cfg.filter.autoencoder.window = 12;
  cfg.filter.autoencoder.encoder_units = 8;
  cfg.filter.autoencoder.latent_units = 4;
  cfg.filter.autoencoder.max_epochs = 3;
  cfg.forecaster.sequence_length = 12;
  cfg.forecaster.lstm_units = 6;
  cfg.forecaster.dense_units = 3;
  cfg.federated_rounds = 1;
  cfg.epochs_per_round = 1;
  cfg.seed = 21;
  cfg.cache_dir.clear();  // determinism must not come from the disk cache
  return cfg;
}

TEST(PipelineDeterminism, ParallelPrepareClientsBitIdenticalToSerial) {
  const core::ExperimentConfig cfg = small_config();
  const std::vector<core::ClientData> serial = core::prepare_clients(cfg);

  ThreadPool pool(4);
  obs::Registry registry;
  RunContext ctx{&pool, &registry};
  const std::vector<core::ClientData> parallel =
      core::prepare_clients(cfg, &ctx);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const core::ClientData& s = serial[c];
    const core::ClientData& p = parallel[c];
    EXPECT_EQ(s.zone, p.zone);
    EXPECT_EQ(s.clean.values, p.clean.values);
    EXPECT_EQ(s.attacked.values, p.attacked.values);
    EXPECT_EQ(s.attacked.labels, p.attacked.labels);
    EXPECT_EQ(s.filtered.values, p.filtered.values);
    EXPECT_EQ(s.filter_result.scores, p.filter_result.scores);
    EXPECT_EQ(s.filter_result.flags, p.filter_result.flags);
    EXPECT_EQ(s.filter_result.threshold, p.filter_result.threshold);
    EXPECT_EQ(s.injection.points_attacked, p.injection.points_attacked);
    EXPECT_EQ(s.injection.bursts, p.injection.bursts);
  }
  EXPECT_GE(registry.counter("pipeline.parallel_client_preps").value(), 1.0);
}

// ---- drivers ----------------------------------------------------------------

fl::ModelFactory linear_factory() {
  return [](Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
}

std::vector<std::unique_ptr<fl::Client>> make_clients(std::size_t n_per_client,
                                                      std::uint64_t seed,
                                                      int count = 3) {
  std::vector<std::unique_ptr<fl::Client>> clients;
  Rng root(seed);
  for (int c = 0; c < count; ++c) {
    Tensor3 x(n_per_client, 1, 1), y(n_per_client, 1, 1);
    Rng data_rng = root.split();
    for (std::size_t i = 0; i < n_per_client; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = static_cast<float>(c + 1) * xi;
    }
    fl::ClientConfig cfg;
    cfg.epochs_per_round = 5;
    cfg.learning_rate = 0.05f;
    cfg.batch_size = 16;
    clients.push_back(std::make_unique<fl::Client>(
        c, x, y, linear_factory(), cfg, root.split()));
  }
  return clients;
}

TEST(PoolBackedSyncDriver, BitIdenticalToSerialDriver) {
  auto run_with = [](const RunContext* ctx) {
    auto clients = make_clients(32, 5);
    fl::Server server({0.0f, 0.0f});
    fl::InMemoryNetwork net;
    fl::SyncDriver driver(server, clients, net, ctx);
    return driver.run(3).final_weights;
  };
  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  EXPECT_EQ(run_with(nullptr), run_with(&ctx));
}

TEST(PoolBackedSyncDriver, BitIdenticalToSerialUnderLossyNetwork) {
  // The network draws one drop decision per message from a single RNG, so
  // the pool must not decide the message order: the broadcast goes out
  // before dispatch and the uploads after the barrier, in cohort order.
  auto run_with = [](const RunContext* ctx) {
    auto clients = make_clients(1024, 10, 8);
    fl::Server server({0.0f, 0.0f});
    fl::NetworkConfig net_cfg;
    net_cfg.drop_probability = 0.3;
    net_cfg.drop_seed = 3;
    fl::InMemoryNetwork net(net_cfg);
    fl::SyncDriver driver(server, clients, net, ctx);
    return driver.run(6);
  };
  const fl::FederatedRunResult serial = run_with(nullptr);
  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  for (int rep = 0; rep < 4; ++rep) {
    const fl::FederatedRunResult pooled = run_with(&ctx);
    ASSERT_EQ(pooled.rounds.size(), serial.rounds.size());
    for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
      EXPECT_EQ(pooled.rounds[r].dropped_messages,
                serial.rounds[r].dropped_messages) << "rep " << rep;
      EXPECT_EQ(pooled.rounds[r].updates_received,
                serial.rounds[r].updates_received) << "rep " << rep;
    }
    EXPECT_EQ(pooled.final_weights, serial.final_weights) << "rep " << rep;
  }
}

TEST(PoolBackedSyncDriver, LossyRunWithDuplicatesAndReplaysIsPinned) {
  // Drops, duplicates and stale replays together, serial and pooled.  The
  // counts depend only on the link's drop pattern and the fault plan, not
  // on floating point, so they are pinned exactly.
  struct Run {
    fl::FederatedRunResult result;
    fl::NetworkStats network;
    faults::FaultStats faults;
  };
  auto run_with = [](const RunContext* ctx) {
    auto clients = make_clients(256, 8, 10);
    fl::Server server({0.0f, 0.0f});
    fl::NetworkConfig net_cfg;
    net_cfg.drop_probability = 0.3;
    net_cfg.drop_seed = 3;
    fl::InMemoryNetwork net(net_cfg);
    faults::FaultPlan plan;
    plan.duplicate(2);
    plan.duplicate(5, 2);
    plan.stale_replay(2, 1);
    plan.stale_replay(7, 1);
    const faults::FaultInjector injector(plan, 9);
    fl::SyncDriver driver(server, clients, net, ctx, &injector);
    Run run{driver.run(6), {}, {}};
    run.network = net.stats();
    run.faults = injector.stats();
    return run;
  };
  // Per round: received, dropped, rejected, late, timed out.
  const std::size_t expected[6][5] = {{4, 6, 1, 0, 4}, {5, 5, 1, 0, 1},
                                      {8, 2, 2, 1, 1}, {6, 4, 3, 1, 2},
                                      {8, 2, 0, 1, 0}, {4, 6, 1, 1, 2}};
  const Run serial = run_with(nullptr);
  ThreadPool pool(4);
  RunContext ctx{&pool, nullptr};
  const Run pooled = run_with(&ctx);
  for (const Run* run : {&serial, &pooled}) {
    EXPECT_EQ(run->network.messages_sent, 111u);
    EXPECT_EQ(run->network.messages_dropped, 27u);
    EXPECT_EQ(run->network.messages_duplicated, 8u);
    EXPECT_EQ(run->network.bytes_sent, 5712u);
    EXPECT_EQ(run->faults.duplicated_messages, 8u);
    EXPECT_EQ(run->faults.stale_replays, 6u);
    ASSERT_EQ(run->result.rounds.size(), 6u);
    for (std::size_t r = 0; r < 6; ++r) {
      const fl::RoundMetrics& m = run->result.rounds[r];
      EXPECT_EQ(m.updates_received, expected[r][0]) << "round " << r;
      EXPECT_EQ(m.dropped_messages, expected[r][1]) << "round " << r;
      EXPECT_EQ(m.rejected_updates, expected[r][2]) << "round " << r;
      EXPECT_EQ(m.late_updates, expected[r][3]) << "round " << r;
      EXPECT_EQ(m.timed_out_clients, expected[r][4]) << "round " << r;
    }
  }
  EXPECT_EQ(pooled.result.final_weights, serial.result.final_weights);
}

TEST(PoolBackedSyncDriver, RunsThroughDriverInterface) {
  auto clients = make_clients(16, 6);
  fl::Server server({0.0f, 0.0f});
  fl::InMemoryNetwork net;
  ThreadPool pool(3);
  RunContext ctx{&pool, nullptr};
  std::unique_ptr<fl::Driver> driver =
      std::make_unique<fl::SyncDriver>(server, clients, net, &ctx);
  const fl::FederatedRunResult result = driver->run(2);
  ASSERT_EQ(result.rounds.size(), 2u);
  for (const fl::RoundMetrics& r : result.rounds) {
    EXPECT_EQ(r.updates_received, 3u);
    EXPECT_EQ(r.dropped_messages, 0u);
  }
}

TEST(SyncDriver, CountsDropsInsteadOfAborting) {
  auto clients = make_clients(16, 7);
  fl::Server server({0.0f, 0.0f});
  fl::NetworkConfig net_cfg;
  net_cfg.drop_probability = 0.5;
  net_cfg.drop_seed = 3;
  fl::InMemoryNetwork net(net_cfg);
  fl::SyncDriver driver(server, clients, net);
  const fl::FederatedRunResult result = driver.run(5);
  std::size_t dropped = 0, received = 0;
  for (const fl::RoundMetrics& r : result.rounds) {
    dropped += r.dropped_messages;
    received += r.updates_received;
  }
  EXPECT_GT(dropped, 0u);   // the lossy network really lost messages...
  EXPECT_LT(received, 15u); // ...which degraded rounds...
  EXPECT_EQ(result.rounds.size(), 5u);  // ...without aborting the run
}

}  // namespace
}  // namespace evfl::runtime
