#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "linalg/kernel.hpp"

namespace ns::linalg {

namespace {

// Panel width. The panel is factored column by column (level-2 work), so it
// is kept narrow; 32 measured fastest from n = 64 to n = 512.
constexpr std::size_t kPanel = 32;

}  // namespace

Result<CholeskyFactorization> CholeskyFactorization::factor(const Matrix& a) {
  if (!a.square()) {
    return make_error(ErrorCode::kBadArguments, "Cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix l(a);

  // Right-looking blocked factorization in place in l's lower triangle:
  // factor a panel of kPanel columns, then subtract L21 L21^T from the trailing
  // lower triangle one block column at a time through gemm.
  for (std::size_t k = 0; k < n; k += kPanel) {
    const std::size_t kend = std::min(k + kPanel, n);
    for (std::size_t j = k; j < kend; ++j) {
      if (cancel::poll()) return cancel::cancelled_error("Cholesky factorization");
      checkpoint::progress(j);
      double* lj = l.col(j);
      const double diag = lj[j];
      if (diag <= 0.0 || !std::isfinite(diag)) {
        return make_error(ErrorCode::kExecutionFailed, "matrix is not positive definite");
      }
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      for (std::size_t i = j + 1; i < n; ++i) lj[i] /= ljj;
      for (std::size_t c = j + 1; c < kend; ++c) {
        double* col = l.col(c);
        const double lcj = lj[c];
        for (std::size_t i = c; i < n; ++i) col[i] -= lj[i] * lcj;
      }
    }
    double* base = l.data();
    for (std::size_t c = kend; c < n; c += kPanel) {
      kernel::gemm(n - c, std::min(kPanel, n - c), kend - k, -1.0, base + c + k * n, n,
                   base + c + k * n, n, /*b_transposed=*/true, 1.0, base + c + c * n, n);
    }
  }
  for (std::size_t j = 1; j < n; ++j) std::fill(l.col(j), l.col(j) + j, 0.0);
  return CholeskyFactorization(std::move(l));
}

Result<Vector> CholeskyFactorization::solve(const Vector& b) const {
  const std::size_t n = order();
  if (b.size() != n) {
    return make_error(ErrorCode::kBadArguments, "rhs size mismatch");
  }
  Vector x(b);
  // L y = b (forward, column by column).
  for (std::size_t k = 0; k < n; ++k) {
    const double* col = l_.col(k);
    x[k] /= col[k];
    const double xk = x[k];
    for (std::size_t i = k + 1; i < n; ++i) x[i] -= col[i] * xk;
  }
  // L^T x = y (backward; row i of L^T is column i of L).
  for (std::size_t i = n; i-- > 0;) {
    const double* col = l_.col(i);
    double sum = x[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= col[k] * x[k];
    x[i] = sum / col[i];
  }
  return x;
}

Result<Vector> dposv(const Matrix& a, const Vector& b) {
  auto chol = CholeskyFactorization::factor(a);
  if (!chol.ok()) return chol.error();
  return chol.value().solve(b);
}

double cholesky_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return nd * nd * nd / 3.0 + 2.0 * nd * nd;
}

}  // namespace ns::linalg
