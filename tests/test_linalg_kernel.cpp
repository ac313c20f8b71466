// Differential tests for the blocked dense kernels: the packed gemm (every
// compiled ISA copy), blocked LU and blocked Cholesky against the scalar
// oracles in linalg_oracle.hpp, over shapes on and off the block sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/cancel.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernel.hpp"
#include "linalg/lu.hpp"
#include "linalg_oracle.hpp"

namespace ns::linalg {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Straddle the register tile (8 x 4), the LU/Cholesky panels (16/32/64)
// and the cache blocks (MC = 128, KC = 256).
constexpr std::size_t kDims[] = {0, 1, 7, 63, 64, 65, 127, 129, 257};
constexpr double kScalars[] = {0.0, 1.0, -0.5, 2.0};

Matrix int_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.storage()) v = std::round(rng.uniform(-8.0, 8.0));
  return m;
}

/// Run kernel::gemm with the given ISA on whole matrices.
void kernel_gemm(kernel::Isa isa, double alpha, const Matrix& a, const Matrix& b, double beta,
                 Matrix& c) {
  kernel::gemm(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.rows(), b.data(), b.rows(),
               /*b_transposed=*/false, beta, c.data(), c.rows(), isa);
}

const char* isa_name(kernel::Isa isa) {
  return isa == kernel::Isa::kAvx2Fma ? "avx2+fma" : "baseline";
}

TEST(GemmKernelTest, MatchesOracleOverShapesAndScalars) {
  Rng rng(101);
  constexpr std::size_t kNumDims = std::size(kDims);
  for (const kernel::Isa isa : kernel::supported_isas()) {
    for (std::size_t idx = 0; idx < 3 * kNumDims; ++idx) {
      const std::size_t m = kDims[idx % kNumDims];
      const std::size_t n = kDims[(4 * idx + 1) % kNumDims];
      const std::size_t k = kDims[(7 * idx + 2) % kNumDims];
      const double alpha = kScalars[idx % 16 / 4];
      const double beta = kScalars[idx % 4];
      SCOPED_TRACE(::testing::Message() << isa_name(isa) << " m=" << m << " n=" << n
                                        << " k=" << k << " alpha=" << alpha
                                        << " beta=" << beta);
      const Matrix a = Matrix::random(m, k, rng);
      const Matrix b = Matrix::random(k, n, rng);
      Matrix c = Matrix::random(m, n, rng);
      if (beta == 0.0) std::fill(c.storage().begin(), c.storage().end(), kNaN);
      Matrix expect = c;
      oracle::gemm(alpha, a, b, beta, expect);
      kernel_gemm(isa, alpha, a, b, beta, c);

      const double c_max = beta == 0.0 ? 0.0 : expect.max_abs();
      const double bound = 2.0 * static_cast<double>(k + 2) * kEps *
                           (std::abs(alpha) * a.frobenius_norm() * b.frobenius_norm() +
                            std::abs(beta) * c_max);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_TRUE(std::isfinite(c.data()[i]));
      }
      EXPECT_LE(max_abs_diff(c, expect), bound);
    }
  }
}

TEST(GemmKernelTest, CrossesEveryCacheBlock) {
  // n = 1600 crosses the NC = 1536 block of packed B; k = 300 the KC block.
  Rng rng(102);
  const Matrix a = Matrix::random(9, 300, rng);
  const Matrix b = Matrix::random(300, 1600, rng);
  for (const kernel::Isa isa : kernel::supported_isas()) {
    SCOPED_TRACE(isa_name(isa));
    Matrix c(9, 1600, 1.0);
    Matrix expect = c;
    oracle::gemm(-1.0, a, b, 1.0, expect);
    kernel_gemm(isa, -1.0, a, b, 1.0, c);
    EXPECT_LE(max_abs_diff(c, expect),
              2.0 * 302 * kEps * (a.frobenius_norm() * b.frobenius_norm() + 1.0));
  }
}

TEST(GemmKernelTest, IntegerOperandsAreExact) {
  // Freivalds checks of a served dgemm (C r == A (B r) with integer
  // operands) need C = A B exactly when every partial sum is an integer
  // below 2^53, whatever the summation order or FMA use.
  Rng rng(103);
  for (const std::size_t n : {65u, 257u, 512u}) {
    const Matrix a = int_matrix(n, n, rng);
    const Matrix b = int_matrix(n, n, rng);
    Matrix expect(n, n);
    oracle::gemm(1.0, a, b, 0.0, expect);
    for (const kernel::Isa isa : kernel::supported_isas()) {
      SCOPED_TRACE(::testing::Message() << isa_name(isa) << " n=" << n);
      Matrix c(n, n, kNaN);
      kernel_gemm(isa, 1.0, a, b, 0.0, c);
      EXPECT_EQ(max_abs_diff(c, expect), 0.0);
    }
  }
  const Matrix a = int_matrix(100, 70, rng);
  const Matrix b = int_matrix(70, 90, rng);
  Matrix expect(100, 90);
  oracle::gemm(1.0, a, b, 0.0, expect);
  EXPECT_EQ(max_abs_diff(matmul(a, b), expect), 0.0);
}

TEST(GemmKernelTest, StridedViewsAndTransposedB) {
  // C(5..5+m, 3..3+n) -= A(2..2+m, 0..k) * B^T with B = rows 1..1+n of bt,
  // all inside larger matrices; everything outside the C view is untouched.
  Rng rng(104);
  const std::size_t m = 70, n = 37, k = 45;
  const Matrix big_a = Matrix::random(m + 4, k, rng);
  const Matrix bt = Matrix::random(n + 3, k, rng);
  for (const kernel::Isa isa : kernel::supported_isas()) {
    SCOPED_TRACE(isa_name(isa));
    Matrix big_c = Matrix::random(m + 9, n + 6, rng);
    const Matrix before = big_c;
    kernel::gemm(m, n, k, -1.0, big_a.data() + 2, big_a.rows(), bt.data() + 1, bt.rows(),
                 /*b_transposed=*/true, 1.0, big_c.data() + 5 + 3 * big_c.rows(), big_c.rows(),
                 isa);
    for (std::size_t j = 0; j < big_c.cols(); ++j) {
      for (std::size_t i = 0; i < big_c.rows(); ++i) {
        const bool inside = i >= 5 && i < 5 + m && j >= 3 && j < 3 + n;
        if (!inside) {
          ASSERT_EQ(big_c(i, j), before(i, j)) << i << "," << j;
          continue;
        }
        double expect = before(i, j);
        for (std::size_t p = 0; p < k; ++p) expect -= big_a(i - 3, p) * bt(j - 2, p);
        ASSERT_NEAR(big_c(i, j), expect, 1e-12) << i << "," << j;
      }
    }
  }
}

/// max |(P A - L U)_ij| for a packed factorization, with L U by the oracle.
double lu_reconstruction_error(const Matrix& a, const LuFactorization& lu) {
  const std::size_t n = a.rows();
  Matrix pa = a;
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<std::size_t>(lu.pivots()[k]);
    for (std::size_t j = 0; j < n; ++j) std::swap(pa(k, j), pa(p, j));
  }
  Matrix l(n, n), u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) (i > j ? l : u)(i, j) = lu.packed()(i, j);
    l(j, j) = 1.0;
  }
  Matrix prod(n, n);
  oracle::gemm(1.0, l, u, 0.0, prod);
  return max_abs_diff(pa, prod);
}

double inf_norm(const Vector& x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::abs(v));
  return m;
}

TEST(BlockedLuTest, FactorsAndSolvesLikeTheOracle) {
  Rng rng(201);
  for (const std::size_t n : {1u, 7u, 16u, 17u, 63u, 64u, 65u, 127u, 129u, 257u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    // General (not diagonally dominant) entries, so pivoting matters.
    const Matrix a = Matrix::random(n, n, rng);
    const Vector b = random_vector(n, rng);
    auto lu = LuFactorization::factor(a);
    ASSERT_TRUE(lu.ok());
    const double nd = static_cast<double>(n);
    EXPECT_LE(lu_reconstruction_error(a, lu.value()), 8.0 * nd * kEps * a.frobenius_norm());

    auto x = lu.value().solve(b);
    ASSERT_TRUE(x.ok());
    EXPECT_LE(residual_inf(a, x.value(), b),
              8.0 * nd * kEps * (a.frobenius_norm() * inf_norm(x.value()) + inf_norm(b)));

    // The oracle's factors solve to the same x (pivot sequences may differ).
    auto ref = oracle::lu(a);
    ASSERT_TRUE(ref.has_value());
    Vector y = b;
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(y[k], y[static_cast<std::size_t>(ref->pivots[k])]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = k + 1; i < n; ++i) y[i] -= ref->lu(i, k) * y[k];
    }
    for (std::size_t k = n; k-- > 0;) {
      y[k] /= ref->lu(k, k);
      for (std::size_t i = 0; i < k; ++i) y[i] -= ref->lu(i, k) * y[k];
    }
    EXPECT_LE(max_abs_diff(x.value(), y), 1e-9 * inf_norm(y));
  }
}

TEST(BlockedLuTest, MultipleRightHandSidesSolveInPlace) {
  Rng rng(202);
  const Matrix a = Matrix::random(129, 129, rng);
  const Matrix b = Matrix::random(129, 5, rng);
  auto x = dgesv(a, b);
  ASSERT_TRUE(x.ok());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector xj(x.value().col(j), x.value().col(j) + 129);
    const Vector bj(b.col(j), b.col(j) + 129);
    auto single = dgesv(a, bj);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(max_abs_diff(xj, single.value()), 0.0);
  }
}

TEST(BlockedLuTest, ZeroColumnInALaterPanelIsSingular) {
  Rng rng(203);
  Matrix a = Matrix::random_diag_dominant(200, rng);
  for (std::size_t i = 0; i < 200; ++i) a(i, 150) = 0.0;
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
}

TEST(BlockedCholeskyTest, MatchesTheOracle) {
  Rng rng(301);
  for (const std::size_t n : {1u, 7u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 129u, 257u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const Matrix full = Matrix::random_spd(n, rng);
    auto ref = oracle::cholesky(full);
    ASSERT_TRUE(ref.has_value());
    // Only the lower triangle may be read.
    Matrix a = full;
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) a(i, j) = kNaN;
    }
    auto chol = CholeskyFactorization::factor(a);
    ASSERT_TRUE(chol.ok());
    const Matrix& l = chol.value().lower();
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) ASSERT_EQ(l(i, j), 0.0) << i << "," << j;
    }
    EXPECT_LE(max_abs_diff(l, *ref), 4.0 * static_cast<double>(n) * kEps * ref->max_abs());

    const Vector b = random_vector(n, rng);
    auto x = chol.value().solve(b);
    ASSERT_TRUE(x.ok());
    EXPECT_LE(residual_inf(full, x.value(), b),
              8.0 * static_cast<double>(n) * kEps *
                  (full.frobenius_norm() * inf_norm(x.value()) + inf_norm(b)));
  }
}

TEST(BlockedCholeskyTest, IndefiniteInALaterPanelRejected) {
  Rng rng(302);
  for (const double bad : {-1.0, 0.0, kNaN}) {
    Matrix a = Matrix::random_spd(129, rng);
    a(100, 100) = bad;
    EXPECT_FALSE(oracle::cholesky(a).has_value());
    auto chol = CholeskyFactorization::factor(a);
    ASSERT_FALSE(chol.ok());
    EXPECT_EQ(chol.error().code, ErrorCode::kExecutionFailed);
  }
}

TEST(KernelCancelTest, PreTrippedTokenCancelsDenseSolves) {
  Rng rng(401);
  const Matrix spd = Matrix::random_spd(64, rng);
  const Vector b = random_vector(64, rng);
  cancel::Token token;
  token.cancel();
  const cancel::ScopedToken scope(&token);
  auto chol = dposv(spd, b);
  ASSERT_FALSE(chol.ok());
  EXPECT_EQ(chol.error().code, ErrorCode::kCancelled);
  auto lu = dgesv(spd, b);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kCancelled);
}

}  // namespace
}  // namespace ns::linalg
