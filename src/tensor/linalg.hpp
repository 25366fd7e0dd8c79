// Small dense linear-algebra routines for the classical baselines
// (Cholesky factorization and SPD solves / normal-equations least squares)
// plus the context-aware GEMM entry points: matmul overloads that
// row-partition the output across a runtime::RunContext's thread pool while
// keeping the serial kernels from tensor/matrix as the grain body, so the
// parallel results stay bit-identical to the serial ones.
#pragma once

#include <vector>

#include "runtime/run_context.hpp"
#include "tensor/matrix.hpp"

namespace evfl::tensor {

/// C += A · B, output rows partitioned across ctx's pool.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c,
                const runtime::RunContext& ctx);
/// C += Aᵀ · B, output rows partitioned across ctx's pool.
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   const runtime::RunContext& ctx);
/// C += A · Bᵀ, output rows partitioned across ctx's pool (Bᵀ is
/// materialized once per call, then the A · B row kernel runs on it).
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   const runtime::RunContext& ctx);

/// C = A · B under a RunContext.
Matrix matmul(const Matrix& a, const Matrix& b, const runtime::RunContext& ctx);
/// C = Aᵀ · B under a RunContext.
Matrix matmul_tn(const Matrix& a, const Matrix& b,
                 const runtime::RunContext& ctx);
/// C = A · Bᵀ under a RunContext.
Matrix matmul_nt(const Matrix& a, const Matrix& b,
                 const runtime::RunContext& ctx);

/// Lower-triangular Cholesky factor L of a symmetric positive-definite A
/// (A = L·Lᵀ).  Throws evfl::Error if A is not SPD (within tolerance).
Matrix cholesky(const Matrix& a);

/// Solve A·x = b for SPD A via Cholesky (b is [n x k], solves all columns).
Matrix solve_spd(const Matrix& a, const Matrix& b);

/// Least squares: argmin_w |X·w - y|² via ridge-stabilized normal equations
/// (XᵀX + lambda·I) w = Xᵀy.  X is [m x n], y is [m x 1]; returns [n x 1].
Matrix least_squares(const Matrix& x, const Matrix& y, float ridge = 1e-6f);

}  // namespace evfl::tensor
