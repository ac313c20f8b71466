#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/kernel.hpp"

namespace ns::linalg {

void axpy(double alpha, const Vector& x, Vector& y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double dot(const Vector& x, const Vector& y) noexcept {
  assert(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double nrm2(const Vector& x) noexcept { return std::sqrt(dot(x, x)); }

void scal(double alpha, Vector& x) noexcept {
  for (double& v : x) v *= alpha;
}

std::size_t iamax(const Vector& x) noexcept {
  std::size_t best = 0;
  double best_abs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

void gemv(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y) {
  assert(x.size() == a.cols());
  assert(y.size() == a.rows());
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, y);
  }
  // Column sweep: contiguous reads of each column, y accumulated in place.
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = alpha * x[j];
    if (xj == 0.0) continue;
    const double* col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += xj * col[i];
  }
}

void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y) {
  assert(x.size() == a.rows());
  assert(y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double* col = a.col(j);
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += col[i] * x[i];
    y[j] = alpha * sum + beta * y[j];
  }
}

void ger(double alpha, const Vector& x, const Vector& y, Matrix& a) {
  assert(x.size() == a.rows());
  assert(y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double yj = alpha * y[j];
    if (yj == 0.0) continue;
    double* col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) col[i] += x[i] * yj;
  }
}

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  kernel::gemm(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.rows(), b.data(), b.rows(),
               /*b_transposed=*/false, beta, c.data(), c.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, b, 0.0, c);
  return c;
}

double residual_inf(const Matrix& a, const Vector& x, const Vector& b) {
  Vector r(b);
  gemv(1.0, a, x, -1.0, r);  // r = 1 * A x + (-1) * b
  double m = 0.0;
  for (const double v : r) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace ns::linalg
