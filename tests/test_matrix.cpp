#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "tensor/rng.hpp"

namespace evfl::tensor {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(Matrix, FillConstructor) {
  Matrix m(2, 2, 1.5f);
  EXPECT_EQ(m(0, 0), 1.5f);
  EXPECT_EQ(m(1, 1), 1.5f);
}

TEST(Matrix, ReshapeKeepsStorageWhenItFits) {
  // A retained buffer through a ragged epoch and a one-row predict: every
  // shape of at most 32 x 8 floats stays in the first block.
  Matrix m(32, 8, 2.0f);
  const float* block = m.data();
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {20, 8}, {32, 8}, {1, 8}, {4, 64}, {0, 5}, {7, 3}, {32, 8}}) {
    m.reshape(rows, cols);
    EXPECT_EQ(m.rows(), rows);
    EXPECT_EQ(m.cols(), cols);
    EXPECT_EQ(m.size(), rows * cols);
    EXPECT_EQ(m.empty(), rows * cols == 0);
    if (rows * cols > 0) {
      EXPECT_EQ(m.data(), block) << rows << " x " << cols;
    }
  }
  // A larger shape takes new storage, and set_zero gives zeros.
  m.reshape(33, 8);
  EXPECT_EQ(m.size(), 264u);
  m.set_zero();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, FromRows) {
  Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
}

TEST(Matrix, FromRowsRaggedThrows) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), ShapeError);
}

TEST(Matrix, RowAndColVector) {
  Matrix r = Matrix::row_vector({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  Matrix c = Matrix::col_vector({1, 2, 3});
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
}

TEST(Matrix, Identity) {
  Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0f);
  EXPECT_EQ(i(0, 1), 0.0f);
  EXPECT_EQ(i(2, 2), 1.0f);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_NO_THROW(m.at(1, 1));
  EXPECT_THROW(m.at(2, 0), ShapeError);
  EXPECT_THROW(m.at(0, 2), ShapeError);
}

TEST(Matrix, AddSubScale) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_EQ(sum(1, 1), 44.0f);
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 0), 9.0f);
  Matrix scaled = a * 2.0f;
  EXPECT_EQ(scaled(1, 0), 6.0f);
  Matrix scaled2 = 0.5f * b;
  EXPECT_EQ(scaled2(0, 1), 10.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(a += b, ShapeError);
  EXPECT_THROW(a -= b, ShapeError);
  EXPECT_THROW(a.hadamard_inplace(b), ShapeError);
  EXPECT_THROW(a.axpy(1.0f, b), ShapeError);
}

TEST(Matrix, Hadamard) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{2, 2}, {2, 2}});
  Matrix h = hadamard(a, b);
  EXPECT_EQ(h(1, 1), 8.0f);
}

TEST(Matrix, Axpy) {
  Matrix a = Matrix::from_rows({{1, 1}});
  Matrix b = Matrix::from_rows({{2, 4}});
  a.axpy(0.5f, b);
  EXPECT_EQ(a(0, 0), 2.0f);
  EXPECT_EQ(a(0, 1), 3.0f);
}

TEST(Matrix, AddRowBroadcast) {
  Matrix m(2, 3, 1.0f);
  Matrix bias = Matrix::row_vector({1, 2, 3});
  m.add_row_broadcast(bias);
  EXPECT_EQ(m(0, 0), 2.0f);
  EXPECT_EQ(m(1, 2), 4.0f);
  Matrix bad = Matrix::row_vector({1, 2});
  EXPECT_THROW(m.add_row_broadcast(bad), ShapeError);
}

TEST(Matrix, Reductions) {
  Matrix m = Matrix::from_rows({{1, -2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.sum(), 6.0f);
  EXPECT_FLOAT_EQ(m.min(), -2.0f);
  EXPECT_FLOAT_EQ(m.max(), 4.0f);
  EXPECT_FLOAT_EQ(m.squared_norm(), 1 + 4 + 9 + 16);
  Matrix cs = m.col_sums();
  EXPECT_EQ(cs.rows(), 1u);
  EXPECT_FLOAT_EQ(cs(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(cs(0, 1), 2.0f);
}

TEST(Matrix, Transposed) {
  Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0f);
}

TEST(Matrix, MatmulSmallKnown) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Matrix, MatmulIdentity) {
  Rng rng(1);
  Matrix a(4, 4);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  Matrix c = matmul(a, Matrix::identity(4));
  EXPECT_LT(max_abs_diff(a, c), 1e-6f);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), ShapeError);
}

/// Property sweep: matmul_tn / matmul_nt agree with explicit transposition.
class MatmulVariants
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulVariants, TnMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(42 + m + 10 * k + 100 * n);
  Matrix a(k, m), b(k, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), matmul(a.transposed(), b)), 1e-4f);
}

TEST_P(MatmulVariants, NtMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(7 + m + 10 * k + 100 * n);
  Matrix a(m, k), b(n, k);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  EXPECT_LT(max_abs_diff(matmul_nt(a, b), matmul(a, b.transposed())), 1e-4f);
}

TEST_P(MatmulVariants, AccumulateAddsOntoExisting) {
  const auto [m, k, n] = GetParam();
  Rng rng(99 + m + k + n);
  Matrix a(m, k), b(k, n), c(m, n, 1.0f);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  Matrix expect = matmul(a, b) + Matrix(m, n, 1.0f);
  matmul_acc(a, b, c);
  EXPECT_LT(max_abs_diff(expect, c), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulVariants,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(13, 21, 17),
                                           std::make_tuple(32, 50, 200)));

TEST(Matrix, MatmulAssociativityProperty) {
  Rng rng(5);
  Matrix a(3, 4), b(4, 5), c(5, 2);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.uniform(-1, 1);
  EXPECT_LT(max_abs_diff(matmul(matmul(a, b), c), matmul(a, matmul(b, c))),
            1e-4f);
}

}  // namespace
}  // namespace evfl::tensor
