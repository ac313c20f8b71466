// Reference dense kernels for differential tests: the straightforward scalar
// gemm, LU and Cholesky that the blocked kernels in src/linalg replaced.
// They are kept simple on purpose; the tests check the blocked kernels
// against them over random shapes.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace ns::linalg::oracle {

/// C = alpha * A B + beta * C, j-l-i loop order; beta == 0 ignores C.
inline void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  for (double& v : c.storage()) v = beta == 0.0 ? 0.0 : beta * v;
  for (std::size_t j = 0; j < b.cols(); ++j) {
    double* cj = c.col(j);
    for (std::size_t l = 0; l < a.cols(); ++l) {
      const double blj = alpha * b(l, j);
      if (blj == 0.0) continue;
      const double* al = a.col(l);
      for (std::size_t i = 0; i < a.rows(); ++i) cj[i] += al[i] * blj;
    }
  }
}

struct Lu {
  Matrix lu;                // unit L below the diagonal, U on and above
  std::vector<int> pivots;  // row swapped with i at step i
};

/// Unblocked right-looking LU with partial pivoting; nullopt when singular.
inline std::optional<Lu> lu(Matrix a) {
  const std::size_t n = a.rows();
  std::vector<int> pivots(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > std::abs(a(p, k))) p = i;
    }
    if (a(p, k) == 0.0) return std::nullopt;
    pivots[k] = static_cast<int>(p);
    for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) /= a(k, k);
    for (std::size_t j = k + 1; j < n; ++j) {
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= a(i, k) * a(k, j);
    }
  }
  return Lu{std::move(a), std::move(pivots)};
}

/// Dot-product Cholesky reading the lower triangle of A; nullopt when A is
/// not positive definite.
inline std::optional<Matrix> cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  return l;
}

}  // namespace ns::linalg::oracle
