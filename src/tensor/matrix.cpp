#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace evfl::tensor {

namespace {

void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (!a.same_shape(b)) {
    throw ShapeError(std::string(op) + ": shape mismatch " + a.shape_str() +
                     " vs " + b.shape_str());
  }
}

void require_view_shapes(ConstMatView c, std::size_t k_a, std::size_t k_b,
                         std::size_t m, std::size_t n, const char* op) {
  if (k_a != k_b || c.rows != m || c.cols != n) {
    throw ShapeError(std::string(op) + ": incompatible view shapes");
  }
}

}  // namespace

void MatView::set_zero() const {
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(row(r), row(r) + cols, 0.0f);
  }
}

MatView Matrix::col_block(std::size_t col_begin, std::size_t n_cols) {
  EVFL_REQUIRE(col_begin + n_cols <= cols_,
               "col_block out of range in " + shape_str());
  return {data() + col_begin, rows_, n_cols, cols_};
}

ConstMatView Matrix::col_block(std::size_t col_begin,
                               std::size_t n_cols) const {
  EVFL_REQUIRE(col_begin + n_cols <= cols_,
               "col_block out of range in " + shape_str());
  return {data() + col_begin, rows_, n_cols, cols_};
}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r == 0 ? 0 : rows.begin()->size();
  Matrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != c) {
      throw ShapeError("from_rows: ragged initializer");
    }
    std::size_t j = 0;
    for (float v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::row_vector(const std::vector<float>& values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::col_vector(const std::vector<float>& values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range in " + shape_str());
  }
  return (*this)(r, c);
}

float Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range in " + shape_str());
  }
  return (*this)(r, c);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "operator+=");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] += src[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "operator-=");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] -= src[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  require_same_shape(*this, other, "hadamard");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] *= src[i];
  return *this;
}

Matrix& Matrix::axpy(float alpha, const Matrix& other) {
  require_same_shape(*this, other, "axpy");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] += alpha * src[i];
  return *this;
}

Matrix& Matrix::add_row_broadcast(const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != cols_) {
    throw ShapeError("add_row_broadcast: bias " + bias.shape_str() +
                     " does not broadcast over " + shape_str());
  }
  const float* b = bias.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    float* dst = row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += b[c];
  }
  return *this;
}

float Matrix::sum() const {
  // Pairwise-ish accumulation in double to keep long reductions accurate.
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Matrix::min() const {
  EVFL_ASSERT(!data_.empty(), "min of empty matrix");
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::max() const {
  EVFL_ASSERT(!data_.empty(), "max of empty matrix");
  return *std::max_element(data_.begin(), data_.end());
}

Matrix Matrix::col_sums() const {
  Matrix out(1, cols_);
  col_sums_into(out);
  return out;
}

void Matrix::col_sums_into(Matrix& out) const {
  out.reshape(1, cols_);
  out.set_zero();
  float* dst = out.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* src = row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

float Matrix::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

std::string Matrix::shape_str() const {
  std::ostringstream os;
  os << "[" << rows_ << " x " << cols_ << "]";
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, float s) { return a *= s; }
Matrix operator*(float s, Matrix a) { return a *= s; }
Matrix hadamard(Matrix a, const Matrix& b) { return a.hadamard_inplace(b); }

// ---- float-FMA GEMM kernels -------------------------------------------------
// One register-blocked kernel serves all three products.  An output
// element runs acc = fma(A(i,k), B(k,j), acc) over ascending k, starting
// from its C value; which tile, row partition, thread, SIMD lane or
// masked tail computes it never changes that sequence (DESIGN.md §8).
// A is addressed through (row step, k step) so Aᵀ·B is the same kernel
// with the steps swapped; A·Bᵀ packs Bᵀ once per call.

namespace {

/// Strided operands of C[i][j] += Σ_k A(i,k)·B(k,j):
/// A(i,k) = a[i·ars + k·acs], B(k,j) = b[k·bs + j], C(i,j) = c[i·cs + j].
struct Gemm {
  const float* a;
  std::size_t ars, acs;
  const float* b;
  std::size_t bs;
  float* c;
  std::size_t cs;
  std::size_t n, k;
};

#if defined(__AVX2__) && defined(__FMA__)

/// One SIMD register of floats and its tail mask.  The tile code below is
/// written once over this interface and instantiated at 8 lanes (AVX2)
/// and, where the target has AVX-512F, at 16.
struct Lanes8 {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr std::size_t kWidth = 8;
  /// Lanes [0, count) enabled.
  static Mask first(std::size_t count) {
    const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              idx);
  }
  static Mask all() { return _mm256_set1_epi32(-1); }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Vec v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static Vec broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
};

#if defined(__AVX512F__)
struct Lanes16 {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr std::size_t kWidth = 16;
  static Mask first(std::size_t count) {
    return static_cast<Mask>((1u << count) - 1);
  }
  static Mask all() { return 0xFFFF; }
  static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  static Vec load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Vec v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
  static Vec broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static Vec fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
};
using WideLanes = Lanes16;
#else
using WideLanes = Lanes8;
#endif

/// kRows × (W·kVecs) register tile at rows [i, i + kRows), columns
/// [j, j + W·kVecs), W = L::kWidth; with kMasked the last vector covers
/// only the lanes set in `tail`.
template <typename L, int kRows, int kVecs, bool kMasked>
inline void fma_tile(const Gemm& g, std::size_t i, std::size_t j,
                     typename L::Mask tail) {
  using Vec = typename L::Vec;
  constexpr std::size_t w = L::kWidth;
  const auto load = [&](const float* p, int v) {
    return kMasked && v == kVecs - 1 ? L::load(p, tail) : L::load(p);
  };
  // The loops over r and v are unrolled before GCC's scalar replacement
  // of `acc`; otherwise the array stays on the stack and every k step
  // stores all accumulators back to memory.  Each pragma's count covers
  // its loop's largest trip count: 8 rows, 4 vectors.
  Vec acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = load(g.c + (i + r) * g.cs + j + w * v, v);
    }
  }
  const std::size_t ars = g.ars, acs = g.acs, bs = g.bs, k = g.k;
  const float* ap = g.a + i * ars;
  const float* bp = g.b + j;
  for (std::size_t kk = 0; kk < k; ++kk, ap += acs, bp += bs) {
    Vec bv[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) bv[v] = load(bp + w * v, v);
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const Vec av = L::broadcast(ap + r * ars);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) acc[r][v] = L::fma(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      float* cp = g.c + (i + r) * g.cs + j + w * v;
      if (kMasked && v == kVecs - 1) {
        L::store(cp, acc[r][v], tail);
      } else {
        L::store(cp, acc[r][v]);
      }
    }
  }
}

/// kRows-row tiles down rows [i0, i1) at columns [j, j + W·kVecs).
template <typename L, int kRows, int kVecs, bool kMasked = false>
void tile_column(const Gemm& g, std::size_t i0, std::size_t i1,
                 std::size_t j, typename L::Mask tail = L::all()) {
  for (std::size_t i = i0; i < i1; i += kRows) {
    fma_tile<L, kRows, kVecs, kMasked>(g, i, j, tail);
  }
}

/// Columns [j, n), at most W·kVecs of them, as one tile of ⌈(n − j)/W⌉
/// vectors whose last vector is masked only when it is partial.  One tile
/// keeps that many FMA chains in flight per A broadcast, where a vector
/// at a time would wait on each chain's latency.
template <typename L, int kRows, int kVecs>
void rest_column(const Gemm& g, std::size_t i0, std::size_t i1,
                 std::size_t j) {
  constexpr std::size_t w = L::kWidth;
  const std::size_t rest = g.n - j;
  if constexpr (kVecs > 1) {
    if (rest <= w * (kVecs - 1)) {
      rest_column<L, kRows, kVecs - 1>(g, i0, i1, j);
      return;
    }
  }
  if (rest % w == 0) {
    tile_column<L, kRows, kVecs>(g, i0, i1, j);
  } else {
    tile_column<L, kRows, kVecs, true>(g, i0, i1, j, L::first(rest % w));
  }
}

/// Rows [i0, i1), a whole number of kRows-row tiles, over every column.
/// Column blocks are outermost, so a k × W·kVecs panel of B stays
/// L1-resident while the row tiles stream past it; the leftover columns
/// are one narrower tile (rest_column).
template <typename L, int kRows, int kVecs>
void row_block(const Gemm& g, std::size_t i0, std::size_t i1) {
  constexpr std::size_t w = L::kWidth;
  std::size_t j = 0;
  for (; j + w * kVecs <= g.n; j += w * kVecs) {
    tile_column<L, kRows, kVecs>(g, i0, i1, j);
  }
  if (j < g.n) rest_column<L, kRows, kVecs>(g, i0, i1, j);
}

/// The 0–3 rows below the last whole 4-row group: 2 × 4W, then 1 × 4W,
/// so even a lone row keeps four independent FMA chains in flight.
template <typename L>
void row_tail(const Gemm& g, std::size_t i, std::size_t i1) {
  if (i + 2 <= i1) {
    row_block<L, 2, 4>(g, i, i + 2);
    i += 2;
  }
  if (i < i1) row_block<L, 1, 4>(g, i, i1);
}

/// The whole kRows-row groups from row i on, as kRows × 2W tiles; returns
/// the row after them.  An empty range is skipped, since row_block would
/// still walk its column tiles.
template <typename L, int kRows>
std::size_t row_groups(const Gemm& g, std::size_t i, std::size_t i1) {
  const std::size_t end = i + (i1 - i) / kRows * kRows;
  if (end > i) row_block<L, kRows, 2>(g, i, end);
  return end;
}

void gemm_rows(const Gemm& g, std::size_t i0, std::size_t i1) {
  // Where the target has 32 vector registers (AVX-512F), whole groups of
  // eight rows run 8 × 2W tiles (16 accumulators): 8 × 32 once B has more
  // than 16 columns, 8 × 16 on 8 lanes below that; the group of four after
  // them runs 4 × 32 or 4 × 16.  AVX2's 16 registers would spill an 8-row
  // tile, so there every whole group of four runs 4 × 16.  The 0–3
  // rows left over run 2 × 4W and 1 × 4W tiles at the widest lanes
  // (2 × 64, 1 × 64) once B has 4W columns, and 2 × 32, 1 × 32 on 8 lanes
  // below that — batch-1 predict, the engine's last rows and the xᵀ·dZ
  // gradient of a one-feature input are such rows.
  std::size_t i = i0;
  if (g.n > WideLanes::kWidth) {
#if defined(__AVX512F__)
    i = row_groups<WideLanes, 8>(g, i, i1);
#endif
    i = row_groups<WideLanes, 4>(g, i, i1);
  } else {
#if defined(__AVX512F__)
    i = row_groups<Lanes8, 8>(g, i, i1);
#endif
    i = row_groups<Lanes8, 4>(g, i, i1);
  }
  if (g.n >= 4 * WideLanes::kWidth) {
    row_tail<WideLanes>(g, i, i1);
  } else {
    row_tail<Lanes8>(g, i, i1);
  }
}

#else

void gemm_rows(const Gemm& g, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = g.c + i * g.cs;
    for (std::size_t kk = 0; kk < g.k; ++kk) {
      const float av = g.a[i * g.ars + kk * g.acs];
      const float* brow = g.b + kk * g.bs;
      for (std::size_t j = 0; j < g.n; ++j) {
        crow[j] = std::fma(av, brow[j], crow[j]);
      }
    }
  }
}

#endif  // __AVX2__ && __FMA__

}  // namespace

void matmul_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                     std::size_t row_begin, std::size_t row_end) {
  gemm_rows({a.data, a.stride, 1, b.data, b.stride, c.data, c.stride, b.cols,
             a.cols},
            row_begin, row_end);
}

void matmul_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                     std::size_t row_begin, std::size_t row_end) {
  matmul_acc_rows(a.view(), b.view(), c.view(), row_begin, row_end);
}

void matmul_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.cols, b.rows, a.rows, b.cols, "matmul");
  matmul_acc_rows(a, b, c, 0, a.rows);
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw ShapeError("matmul: incompatible shapes " + a.shape_str() + " · " +
                     b.shape_str() + " -> " + c.shape_str());
  }
  matmul_acc_rows(a, b, c, 0, a.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_acc(a, b, c);
  return c;
}

void matmul_tn_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                        std::size_t row_begin, std::size_t row_end) {
  // C[i,j] += Σ_k A[k,i]·B[k,j]: the A·B kernel with A's steps swapped.
  gemm_rows({a.data, 1, a.stride, b.data, b.stride, c.data, c.stride, b.cols,
             a.rows},
            row_begin, row_end);
}

void matmul_tn_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                        std::size_t row_begin, std::size_t row_end) {
  matmul_tn_acc_rows(a.view(), b.view(), c.view(), row_begin, row_end);
}

void matmul_tn_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.rows, b.rows, a.cols, b.cols, "matmul_tn");
  matmul_tn_acc_rows(a, b, c, 0, a.cols);
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw ShapeError("matmul_tn: incompatible shapes " + a.shape_str() +
                     "ᵀ · " + b.shape_str() + " -> " + c.shape_str());
  }
  matmul_tn_acc_rows(a, b, c, 0, a.cols());
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c);
  return c;
}

namespace {

/// C[i,j] += Σ_k A[i,k]·B[j,k]: pack Bᵀ ([k, n], contiguous rows) once,
/// then run the A·B kernel over every row.  The buffer only grows, so
/// steady-state calls do not allocate.
void gemm_nt(ConstMatView a, ConstMatView b, MatView c) {
  const std::size_t k = a.cols, n = b.rows;
  static thread_local std::vector<float> packed;
  if (packed.size() < k * n) packed.resize(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = b.row(j);
    for (std::size_t kk = 0; kk < k; ++kk) packed[kk * n + j] = brow[kk];
  }
  gemm_rows({a.data, a.stride, 1, packed.data(), n, c.data, c.stride, n, k},
            0, a.rows);
}

}  // namespace

void matmul_nt_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.cols, b.cols, a.rows, b.rows, "matmul_nt");
  gemm_nt(a, b, c);
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.cols() || c.rows() != a.rows() || c.cols() != b.rows()) {
    throw ShapeError("matmul_nt: incompatible shapes " + a.shape_str() +
                     " · " + b.shape_str() + "ᵀ -> " + c.shape_str());
  }
  gemm_nt(a.view(), b.view(), c.view());
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_nt_acc(a, b, c);
  return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "max_abs_diff");
  float worst = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(pa[i] - pb[i]));
  }
  return worst;
}

}  // namespace evfl::tensor
