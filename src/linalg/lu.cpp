#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "linalg/kernel.hpp"

namespace ns::linalg {

namespace {

// Column blocking: the trailing matrix is updated a panel of kPanel columns
// at a time, and each panel is factored by halving down to kLeaf columns,
// so all but the O(n^2 kLeaf) leaf work runs in kernel::gemm.
constexpr std::size_t kPanel = 64;
constexpr std::size_t kLeaf = 16;

/// Apply the row interchanges pivots[r0..r1) to columns [c0, c1) of `a`.
void swap_rows(Matrix& a, const std::vector<int>& pivots, std::size_t r0, std::size_t r1,
               std::size_t c0, std::size_t c1) {
  for (std::size_t c = c0; c < c1; ++c) {
    double* col = a.col(c);
    for (std::size_t r = r0; r < r1; ++r) {
      std::swap(col[r], col[static_cast<std::size_t>(pivots[r])]);
    }
  }
}

/// Factor columns [c0, c1) over rows [c0, n) into unit-lower L and upper U
/// with partial pivoting, applying the row interchanges to these columns
/// only. The columns must already carry every update from columns < c0.
Status factor_columns(Matrix& a, std::vector<int>& pivots, int& sign, std::size_t c0,
                      std::size_t c1) {
  const std::size_t n = a.rows();
  if (c1 - c0 <= kLeaf) {
    for (std::size_t j = c0; j < c1; ++j) {
      // Cancellation checkpoint at pivot-column granularity: one
      // thread-local read per column elimination. Progress-only for the
      // durability layer — direct factorization has no cheap resumable
      // state, but probes still see how far the elimination got.
      if (cancel::poll()) return cancel::cancelled_error("LU factorization");
      checkpoint::progress(j);
      // Partial pivot: largest |a_ij| for i >= j.
      double* l = a.col(j);
      std::size_t p = j;
      double p_abs = std::abs(l[j]);
      for (std::size_t i = j + 1; i < n; ++i) {
        const double v = std::abs(l[i]);
        if (v > p_abs) {
          p_abs = v;
          p = i;
        }
      }
      pivots[j] = static_cast<int>(p);
      if (p_abs == 0.0) {
        return make_error(ErrorCode::kExecutionFailed, "matrix is singular");
      }
      if (p != j) {
        sign = -sign;
        swap_rows(a, pivots, j, j + 1, c0, c1);
      }
      const double pivot = l[j];
      for (std::size_t i = j + 1; i < n; ++i) l[i] /= pivot;
      // Rank-1 update of the rest of the leaf, column-wise for locality.
      for (std::size_t c = j + 1; c < c1; ++c) {
        double* col = a.col(c);
        const double ajc = col[j];
        if (ajc == 0.0) continue;
        for (std::size_t i = j + 1; i < n; ++i) col[i] -= l[i] * ajc;
      }
    }
    return ok_status();
  }

  const std::size_t mid = c0 + std::min(kPanel, (c1 - c0) / 2);
  if (auto left = factor_columns(a, pivots, sign, c0, mid); !left.ok()) return left;
  swap_rows(a, pivots, c0, mid, mid, c1);
  // U12 = L11^-1 A12 (unit lower triangular solve, column by column).
  for (std::size_t c = mid; c < c1; ++c) {
    double* col = a.col(c);
    for (std::size_t j = c0; j < mid; ++j) {
      const double x = col[j];
      if (x == 0.0) continue;
      const double* l = a.col(j);
      for (std::size_t i = j + 1; i < mid; ++i) col[i] -= l[i] * x;
    }
  }
  // A22 -= L21 U12.
  double* base = a.data();
  kernel::gemm(n - mid, c1 - mid, mid - c0, -1.0, base + mid + c0 * n, n, base + c0 + mid * n, n,
               /*b_transposed=*/false, 1.0, base + mid + mid * n, n);
  if (auto right = factor_columns(a, pivots, sign, mid, c1); !right.ok()) return right;
  swap_rows(a, pivots, mid, c1, c0, mid);
  return ok_status();
}

}  // namespace

Result<LuFactorization> LuFactorization::factor(Matrix a) {
  if (!a.square()) {
    return make_error(ErrorCode::kBadArguments, "LU requires a square matrix");
  }
  std::vector<int> pivots(a.rows());
  int sign = 1;
  if (auto status = factor_columns(a, pivots, sign, 0, a.rows()); !status.ok()) {
    return status.error();
  }
  return LuFactorization(std::move(a), std::move(pivots), sign);
}

void LuFactorization::solve_in_place(double* x) const {
  const std::size_t n = order();
  // Apply row permutations.
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<std::size_t>(pivots_[k]);
    if (p != k) std::swap(x[k], x[p]);
  }
  // Forward substitution with unit lower triangle.
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* col = lu_.col(k);
    for (std::size_t i = k + 1; i < n; ++i) x[i] -= col[i] * xk;
  }
  // Back substitution with U.
  for (std::size_t k = n; k-- > 0;) {
    x[k] /= lu_(k, k);
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* col = lu_.col(k);
    for (std::size_t i = 0; i < k; ++i) x[i] -= col[i] * xk;
  }
}

Result<Vector> LuFactorization::solve(const Vector& b) const {
  if (b.size() != order()) {
    return make_error(ErrorCode::kBadArguments, "rhs size mismatch");
  }
  Vector x(b);
  solve_in_place(x.data());
  return x;
}

Result<Matrix> LuFactorization::solve(const Matrix& b) const {
  if (b.rows() != order()) {
    return make_error(ErrorCode::kBadArguments, "rhs rows mismatch");
  }
  Matrix x(b);
  for (std::size_t j = 0; j < x.cols(); ++j) solve_in_place(x.col(j));
  return x;
}

double LuFactorization::determinant() const noexcept {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < order(); ++i) det *= lu_(i, i);
  return det;
}

Result<Vector> dgesv(const Matrix& a, const Vector& b) {
  auto lu = LuFactorization::factor(a);
  if (!lu.ok()) return lu.error();
  return lu.value().solve(b);
}

Result<Matrix> dgesv(const Matrix& a, const Matrix& b) {
  auto lu = LuFactorization::factor(a);
  if (!lu.ok()) return lu.error();
  return lu.value().solve(b);
}

double lu_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return (2.0 / 3.0) * nd * nd * nd + 2.0 * nd * nd;
}

}  // namespace ns::linalg
