// Dense row-major float matrix with the handful of BLAS-like kernels the
// neural-network substrate needs, plus lightweight strided views so a
// column block of a fused matrix (e.g. one LSTM gate inside [N, 4H]) can
// be read and written in place.  Storage is pool-recycled (tensor/pool) so
// steady-state temporaries don't touch the heap.  The GEMMs are one
// register-blocked float-FMA kernel: every output element accumulates
// fma(a, b, acc) over ascending k from its C value, so tiling, row
// partition, thread count and SIMD-vs-tail all give the same bits.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/pool.hpp"

namespace evfl::tensor {

// ---- strided views ---------------------------------------------------------
// Non-owning [rows x cols] window onto row-major storage whose rows are
// `stride` floats apart.  A Matrix is the stride == cols special case; a
// gate block of a fused [N, 4H] matrix is a stride == 4H view.  Views are
// cheap value types; the referenced storage must outlive them.

struct ConstMatView {
  const float* data = nullptr;
  std::size_t rows = 0, cols = 0, stride = 0;

  const float* row(std::size_t r) const { return data + r * stride; }
  float operator()(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
};

struct MatView {
  float* data = nullptr;
  std::size_t rows = 0, cols = 0, stride = 0;

  float* row(std::size_t r) const { return data + r * stride; }
  float& operator()(std::size_t r, std::size_t c) const {
    return data[r * stride + c];
  }
  operator ConstMatView() const { return {data, rows, cols, stride}; }

  void set_zero() const;
};

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// rows x cols, every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer lists; all rows must have equal length.
  static Matrix from_rows(std::initializer_list<std::initializer_list<float>> rows);

  /// Build a 1 x n row vector from a flat list of values.
  static Matrix row_vector(const std::vector<float>& values);

  /// Build an n x 1 column vector from a flat list of values.
  static Matrix col_vector(const std::vector<float>& values);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws ShapeError); use in non-hot paths.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the start of row r.
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Whole-matrix view (stride == cols).
  MatView view() { return {data(), rows_, cols_, cols_}; }
  ConstMatView view() const { return {data(), rows_, cols_, cols_}; }

  /// Strided view of columns [col_begin, col_begin + n_cols): reads and
  /// writes go straight to this matrix's storage.
  MatView col_block(std::size_t col_begin, std::size_t n_cols);
  ConstMatView col_block(std::size_t col_begin, std::size_t n_cols) const;

  void fill(float value);
  void set_zero() { fill(0.0f); }

  /// Make this rows x cols, keeping the storage when the new shape fits in
  /// it and reserving exactly rows·cols floats when it does not, so a
  /// retained buffer that goes 32 → 20 → 32 rows allocates once.  The
  /// contents are unspecified afterwards: callers that need zeros call
  /// set_zero().
  void reshape(std::size_t rows, std::size_t cols) {
    reshape_storage(data_, rows * cols);
    rows_ = rows;
    cols_ = cols;
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // ---- in-place elementwise ops ------------------------------------------
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);
  /// Elementwise (Hadamard) product in place.
  Matrix& hadamard_inplace(const Matrix& other);
  /// this += alpha * other  (axpy).
  Matrix& axpy(float alpha, const Matrix& other);

  /// Adds the 1 x cols row vector `bias` to every row (bias broadcast).
  Matrix& add_row_broadcast(const Matrix& bias);

  // ---- reductions ---------------------------------------------------------
  float sum() const;
  float min() const;
  float max() const;
  /// Sum over rows producing a 1 x cols row vector (bias gradient).
  Matrix col_sums() const;
  /// col_sums into a pre-shaped 1 x cols matrix — same accumulation order,
  /// no allocation when `out` already has the right shape.
  void col_sums_into(Matrix& out) const;
  /// Frobenius norm squared.
  float squared_norm() const;

  Matrix transposed() const;

  std::string shape_str() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  FloatVec data_;
};

// ---- free functions --------------------------------------------------------

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, float s);
Matrix operator*(float s, Matrix a);
Matrix hadamard(Matrix a, const Matrix& b);

/// C = A · B
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = Aᵀ · B  (without materializing the transpose)
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A · Bᵀ  (without materializing the transpose)
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// C += A · B  — the LSTM hot loop.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c);
/// C += Aᵀ · B
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c);
/// C += A · Bᵀ
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c);

// Shape-checked view entry points: identical kernels over strided storage
// (workspace scratch, gate blocks), so hot paths can multiply without
// materializing Matrix temporaries.
void matmul_acc(ConstMatView a, ConstMatView b, MatView c);
void matmul_tn_acc(ConstMatView a, ConstMatView b, MatView c);
void matmul_nt_acc(ConstMatView a, ConstMatView b, MatView c);

// Row-range kernel bodies: compute output rows [row_begin, row_end) of C
// only.  Every C element runs acc = fma(a, b, acc) over ascending k from
// its C value, whichever tile or lane computes it, so any row partition
// is bit-identical to one call over all rows.  These are the grain bodies
// the context-aware overloads in tensor/linalg partition across a thread
// pool (A · Bᵀ materializes Bᵀ once and uses the A · B body); shapes are
// assumed already validated.
void matmul_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                     std::size_t row_begin, std::size_t row_end);
void matmul_tn_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                        std::size_t row_begin, std::size_t row_end);
void matmul_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                     std::size_t row_begin, std::size_t row_end);
void matmul_tn_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                        std::size_t row_begin, std::size_t row_end);

/// Max absolute elementwise difference; matrices must share a shape.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace evfl::tensor
