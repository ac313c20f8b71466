// BLAS-style dense kernels (levels 1-3). Naming follows the BLAS tradition
// the original NetSolve servers exposed; signatures are C++-native.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace ns::linalg {

// ---- Level 1 ----

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y) noexcept;

/// <x, y>
double dot(const Vector& x, const Vector& y) noexcept;

/// ||x||_2
double nrm2(const Vector& x) noexcept;

/// x *= alpha
void scal(double alpha, Vector& x) noexcept;

/// Index of max |x_i| (0 for empty input).
std::size_t iamax(const Vector& x) noexcept;

// ---- Level 2 ----

/// y = alpha * A x + beta * y
void gemv(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y);

/// y = alpha * A^T x + beta * y
void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y);

/// A += alpha * x y^T (rank-1 update)
void ger(double alpha, const Vector& x, const Vector& y, Matrix& a);

// ---- Level 3 ----

/// C = alpha * A B + beta * C through the packed kernel in linalg/kernel.hpp.
/// beta == 0 overwrites C without reading it.
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c);

/// Convenience: C = A B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Residual ||A x - b||_inf, the standard check used by the tests.
double residual_inf(const Matrix& a, const Vector& x, const Vector& b);

}  // namespace ns::linalg
