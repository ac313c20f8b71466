// Cholesky factorization for symmetric positive definite systems (`dposv`).
#pragma once

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace ns::linalg {

class CholeskyFactorization {
 public:
  /// Factor A = L L^T, right-looking and blocked, with the trailing updates
  /// through kernel::gemm. Fails with kExecutionFailed if A is not
  /// (numerically) positive definite and kCancelled when the thread's
  /// cancel token trips. Only the lower triangle of A is read.
  static Result<CholeskyFactorization> factor(const Matrix& a);

  /// Solve A x = b via two triangular solves.
  Result<Vector> solve(const Vector& b) const;

  const Matrix& lower() const noexcept { return l_; }
  std::size_t order() const noexcept { return l_.rows(); }

 private:
  explicit CholeskyFactorization(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// LAPACK-style convenience: solve SPD system A x = b.
Result<Vector> dposv(const Matrix& a, const Vector& b);

/// Flops of an n-th order Cholesky solve (n^3/3 + 2 n^2).
double cholesky_flops(std::size_t n) noexcept;

}  // namespace ns::linalg
