#include "tensor/linalg.hpp"

#include <cmath>

namespace evfl::tensor {

namespace {

void require_matmul_shapes(const Matrix& a, const Matrix& b, const Matrix& c,
                           std::size_t k_a, std::size_t k_b, std::size_t m,
                           std::size_t n, const char* op) {
  if (k_a != k_b || c.rows() != m || c.cols() != n) {
    throw ShapeError(std::string(op) + ": incompatible shapes " +
                     a.shape_str() + " · " + b.shape_str() + " -> " +
                     c.shape_str());
  }
}

}  // namespace

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c,
                const runtime::RunContext& ctx) {
  require_matmul_shapes(a, b, c, a.cols(), b.rows(), a.rows(), b.cols(),
                        "matmul");
  ctx.parallel_for(a.rows(), ctx.grain_for(a.rows()),
                   [&](std::size_t begin, std::size_t end) {
                     matmul_acc_rows(a, b, c, begin, end);
                   });
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   const runtime::RunContext& ctx) {
  require_matmul_shapes(a, b, c, a.rows(), b.rows(), a.cols(), b.cols(),
                        "matmul_tn");
  ctx.parallel_for(a.cols(), ctx.grain_for(a.cols()),
                   [&](std::size_t begin, std::size_t end) {
                     matmul_tn_acc_rows(a, b, c, begin, end);
                   });
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   const runtime::RunContext& ctx) {
  require_matmul_shapes(a, b, c, a.cols(), b.cols(), a.rows(), b.rows(),
                        "matmul_nt");
  // Bᵀ is materialized once here and every chunk runs the A·B kernel on
  // it — the same per-element sequence as the serial call.
  const Matrix bt = b.transposed();
  ctx.parallel_for(a.rows(), ctx.grain_for(a.rows()),
                   [&](std::size_t begin, std::size_t end) {
                     matmul_acc_rows(a, bt, c, begin, end);
                   });
}

Matrix matmul(const Matrix& a, const Matrix& b,
              const runtime::RunContext& ctx) {
  Matrix c(a.rows(), b.cols());
  matmul_acc(a, b, c, ctx);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b,
                 const runtime::RunContext& ctx) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c, ctx);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b,
                 const runtime::RunContext& ctx) {
  Matrix c(a.rows(), b.rows());
  matmul_nt_acc(a, b, c, ctx);
  return c;
}

Matrix cholesky(const Matrix& a) {
  EVFL_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* lrow_i = l.row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const float* lrow_j = l.row(j);
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        sum -= static_cast<double>(lrow_i[k]) * lrow_j[k];
      }
      if (i == j) {
        if (sum <= 0.0) {
          throw Error("cholesky: matrix not positive definite (pivot " +
                      std::to_string(i) + ")");
        }
        l(i, i) = static_cast<float>(std::sqrt(sum));
      } else {
        l(i, j) = static_cast<float>(sum / l(j, j));
      }
    }
  }
  return l;
}

Matrix solve_spd(const Matrix& a, const Matrix& b) {
  EVFL_REQUIRE(a.rows() == b.rows(), "solve_spd: dimension mismatch");
  const Matrix l = cholesky(a);
  const std::size_t n = a.rows();
  const std::size_t k = b.cols();

  // Both substitutions solve all right-hand sides together, row by row:
  // the inner j loop then reads whole z/x rows contiguously instead of
  // striding down one column at a time.  Per (row, col) element the j
  // accumulation order is unchanged, so results match the column-at-a-
  // time loops exactly.
  std::vector<double> acc(k);

  // Forward substitution: L·z = b.
  Matrix z(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    const float* lrow = l.row(i);
    for (std::size_t col = 0; col < k; ++col) acc[col] = b(i, col);
    for (std::size_t j = 0; j < i; ++j) {
      const double lij = lrow[j];
      const float* zrow = z.row(j);
      for (std::size_t col = 0; col < k; ++col) {
        acc[col] -= lij * static_cast<double>(zrow[col]);
      }
    }
    const float lii = lrow[i];
    float* zout = z.row(i);
    for (std::size_t col = 0; col < k; ++col) {
      zout[col] = static_cast<float>(acc[col] / lii);
    }
  }
  // Back substitution: Lᵀ·x = z.
  Matrix x(n, k);
  for (std::size_t ii = n; ii-- > 0;) {
    const float* zrow = z.row(ii);
    for (std::size_t col = 0; col < k; ++col) acc[col] = zrow[col];
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double lji = l(j, ii);
      const float* xrow = x.row(j);
      for (std::size_t col = 0; col < k; ++col) {
        acc[col] -= lji * static_cast<double>(xrow[col]);
      }
    }
    const float lii = l(ii, ii);
    float* xout = x.row(ii);
    for (std::size_t col = 0; col < k; ++col) {
      xout[col] = static_cast<float>(acc[col] / lii);
    }
  }
  return x;
}

Matrix least_squares(const Matrix& x, const Matrix& y, float ridge) {
  EVFL_REQUIRE(x.rows() == y.rows(), "least_squares: row mismatch");
  EVFL_REQUIRE(x.rows() >= x.cols(), "least_squares: underdetermined system");
  Matrix xtx = matmul_tn(x, x);
  for (std::size_t i = 0; i < xtx.rows(); ++i) xtx(i, i) += ridge;
  const Matrix xty = matmul_tn(x, y);
  return solve_spd(xtx, xty);
}

}  // namespace evfl::tensor
