// Tests for the dense numerical substrate: matrix type, BLAS kernels, LU,
// Cholesky, QR, eigensolvers, tridiagonal solve. Heavy on TEST_P property
// sweeps: residual bounds on random systems across sizes and seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/rating.hpp"
#include "linalg/tridiag.hpp"

namespace ns::linalg {
namespace {

// ---- Matrix basics ----

TEST(MatrixTest, ColumnMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
  EXPECT_EQ(m.col(1)[0], 3);
}

TEST(MatrixTest, Identity) {
  const Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Transpose) {
  Rng rng(1);
  const Matrix a = Matrix::random(3, 5, rng);
  const Matrix at = a.transposed();
  ASSERT_EQ(at.rows(), 5u);
  ASSERT_EQ(at.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(at(j, i), a(i, j));
  }
}

TEST(MatrixTest, Norms) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = -4;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(MatrixTest, RandomSpdIsSymmetric) {
  Rng rng(2);
  const Matrix a = Matrix::random_spd(16, rng);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
    }
  }
}

TEST(MatrixTest, DiagDominantHasStrongDiagonal) {
  Rng rng(3);
  const Matrix a = Matrix::random_diag_dominant(20, rng);
  for (std::size_t i = 0; i < 20; ++i) {
    double off = 0;
    for (std::size_t j = 0; j < 20; ++j) {
      if (j != i) off += std::abs(a(i, j));
    }
    EXPECT_GT(a(i, i), off);
  }
}

// ---- BLAS level 1 ----

TEST(BlasTest, AxpyDotNrm2Scal) {
  Vector x{1, 2, 3};
  Vector y{4, 5, 6};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{6, 9, 12}));
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(Vector{3, 4}), 5.0);
  Vector z{1, -2};
  scal(-3.0, z);
  EXPECT_EQ(z, (Vector{-3, 6}));
}

TEST(BlasTest, Iamax) {
  EXPECT_EQ(iamax(Vector{1, -5, 3}), 1u);
  EXPECT_EQ(iamax(Vector{}), 0u);
  EXPECT_EQ(iamax(Vector{0, 0, 0}), 0u);
}

// ---- BLAS level 2/3 ----

TEST(BlasTest, GemvKnown) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Vector x{5, 6};
  Vector y{1, 1};
  gemv(1.0, a, x, 1.0, y);  // y = A x + y
  EXPECT_EQ(y, (Vector{18, 40}));
}

TEST(BlasTest, GemvTransposed) {
  Rng rng(4);
  const Matrix a = Matrix::random(4, 3, rng);
  const Vector x = random_vector(4, rng);
  Vector y1(3, 0.0);
  gemv_t(1.0, a, x, 0.0, y1);
  Vector y2(3, 0.0);
  gemv(1.0, a.transposed(), x, 0.0, y2);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-12);
}

TEST(BlasTest, GerRank1Update) {
  Matrix a(2, 2);
  ger(2.0, Vector{1, 2}, Vector{3, 4}, a);
  EXPECT_DOUBLE_EQ(a(0, 0), 6);
  EXPECT_DOUBLE_EQ(a(0, 1), 8);
  EXPECT_DOUBLE_EQ(a(1, 0), 12);
  EXPECT_DOUBLE_EQ(a(1, 1), 16);
}

TEST(BlasTest, GemmAgainstNaiveReference) {
  Rng rng(5);
  const Matrix a = Matrix::random(17, 23, rng);
  const Matrix b = Matrix::random(23, 11, rng);
  const Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double ref = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) ref += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), ref, 1e-10);
    }
  }
}

TEST(BlasTest, GemmAlphaBeta) {
  Rng rng(6);
  const Matrix a = Matrix::random(8, 8, rng);
  const Matrix b = Matrix::random(8, 8, rng);
  Matrix c = Matrix::identity(8);
  gemm(2.0, a, b, 3.0, c);  // C = 2AB + 3I
  Matrix ref = matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + (i == j ? 3.0 : 0.0), 1e-10);
    }
  }
}

TEST(BlasTest, GemmIdentityIsNoop) {
  Rng rng(7);
  const Matrix a = Matrix::random(12, 12, rng);
  const Matrix c = matmul(a, Matrix::identity(12));
  EXPECT_LT(max_abs_diff(a, c), 1e-14);
}

TEST(BlasTest, GemmAssociativityProperty) {
  Rng rng(8);
  const Matrix a = Matrix::random(6, 7, rng);
  const Matrix b = Matrix::random(7, 5, rng);
  const Matrix c = Matrix::random(5, 4, rng);
  const Matrix left = matmul(matmul(a, b), c);
  const Matrix right = matmul(a, matmul(b, c));
  EXPECT_LT(max_abs_diff(left, right), 1e-10);
}

// ---- LU ----

struct SolveCase {
  std::size_t n;
  std::uint64_t seed;
};

class LuPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(LuPropertyTest, SolvesRandomSystems) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector x_true = random_vector(n, rng);
  Vector b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);

  auto x = dgesv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-8 * static_cast<double>(n));
  EXPECT_LT(residual_inf(a, x.value(), b), 1e-8 * a.max_abs() * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPropertyTest,
                         ::testing::Values(SolveCase{1, 10}, SolveCase{2, 11}, SolveCase{3, 12},
                                           SolveCase{5, 13}, SolveCase{8, 14}, SolveCase{16, 15},
                                           SolveCase{33, 16}, SolveCase{64, 17},
                                           SolveCase{100, 18}, SolveCase{150, 19}));

TEST(LuTest, SingularMatrixRejected) {
  Matrix a(3, 3);  // all zeros
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
}

TEST(LuTest, RankDeficientRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // second row is 2x the first
  EXPECT_FALSE(LuFactorization::factor(a).ok());
}

TEST(LuTest, NonSquareRejected) {
  EXPECT_FALSE(LuFactorization::factor(Matrix(2, 3)).ok());
}

TEST(LuTest, RhsSizeMismatchRejected) {
  Rng rng(20);
  auto lu = LuFactorization::factor(Matrix::random_diag_dominant(4, rng));
  ASSERT_TRUE(lu.ok());
  EXPECT_FALSE(lu.value().solve(Vector(3)).ok());
}

TEST(LuTest, DeterminantOfKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 8;
  a(1, 0) = 4;
  a(1, 1) = 6;
  auto lu = LuFactorization::factor(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.value().determinant(), -14.0, 1e-10);
}

TEST(LuTest, DeterminantOfIdentityIsOne) {
  auto lu = LuFactorization::factor(Matrix::identity(5));
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.value().determinant(), 1.0, 1e-12);
}

TEST(LuTest, MultipleRhs) {
  Rng rng(21);
  const Matrix a = Matrix::random_diag_dominant(10, rng);
  const Matrix x_true = Matrix::random(10, 3, rng);
  const Matrix b = matmul(a, x_true);
  auto x = dgesv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-8);
}

TEST(LuTest, PivotingHandlesZeroLeadingEntry) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;  // permutation matrix: needs a pivot swap
  auto x = dgesv(a, Vector{2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 3.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 2.0, 1e-12);
}

TEST(LuTest, FlopsFormula) {
  EXPECT_NEAR(lu_flops(10), (2.0 / 3.0) * 1000 + 200, 1e-9);
  EXPECT_GT(lu_flops(100), lu_flops(99));
}

// ---- Cholesky ----

class CholeskyPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(CholeskyPropertyTest, SolvesSpdSystems) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_spd(n, rng);
  const Vector x_true = random_vector(n, rng);
  Vector b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);

  auto x = dposv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(SolveCase{1, 30}, SolveCase{4, 31}, SolveCase{9, 32},
                                           SolveCase{16, 33}, SolveCase{40, 34},
                                           SolveCase{80, 35}));

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(36);
  const Matrix a = Matrix::random_spd(12, rng);
  auto chol = CholeskyFactorization::factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.value().lower();
  const Matrix rebuilt = matmul(l, l.transposed());
  EXPECT_LT(max_abs_diff(a, rebuilt), 1e-9 * a.max_abs());
}

TEST(CholeskyTest, IndefiniteRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  auto chol = CholeskyFactorization::factor(a);
  ASSERT_FALSE(chol.ok());
  EXPECT_EQ(chol.error().code, ErrorCode::kExecutionFailed);
}

TEST(CholeskyTest, AgreesWithLu) {
  Rng rng(37);
  const Matrix a = Matrix::random_spd(20, rng);
  const Vector b = random_vector(20, rng);
  auto x_chol = dposv(a, b);
  auto x_lu = dgesv(a, b);
  ASSERT_TRUE(x_chol.ok());
  ASSERT_TRUE(x_lu.ok());
  EXPECT_LT(max_abs_diff(x_chol.value(), x_lu.value()), 1e-8);
}

// ---- QR ----

class QrPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(QrPropertyTest, SquareSystemsMatchLu) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector b = random_vector(n, rng);
  auto x_qr = dgels(a, b);
  auto x_lu = dgesv(a, b);
  ASSERT_TRUE(x_qr.ok());
  ASSERT_TRUE(x_lu.ok());
  EXPECT_LT(max_abs_diff(x_qr.value(), x_lu.value()), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrPropertyTest,
                         ::testing::Values(SolveCase{2, 40}, SolveCase{5, 41}, SolveCase{10, 42},
                                           SolveCase{25, 43}, SolveCase{50, 44}));

TEST(QrTest, OverdeterminedLeastSquaresNormalEquations) {
  // x solves A^T A x = A^T b; verify via the normal-equation residual.
  Rng rng(45);
  const Matrix a = Matrix::random(30, 5, rng);
  const Vector b = random_vector(30, rng);
  auto x = dgels(a, b);
  ASSERT_TRUE(x.ok());
  // r = A x - b must be orthogonal to the column space: A^T r == 0.
  Vector r(b);
  gemv(1.0, a, x.value(), -1.0, r);
  Vector atr(5, 0.0);
  gemv_t(1.0, a, r, 0.0, atr);
  for (const double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(QrTest, ExactFitRecovered) {
  Rng rng(46);
  const Matrix a = Matrix::random(20, 4, rng);
  const Vector x_true = random_vector(4, rng);
  Vector b(20, 0.0);
  gemv(1.0, a, x_true, 0.0, b);
  auto x = dgels(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-9);
}

TEST(QrTest, UnderdeterminedRejected) {
  EXPECT_FALSE(QrFactorization::factor(Matrix(3, 5)).ok());
}

TEST(QrTest, RankDeficientRejected) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  EXPECT_FALSE(QrFactorization::factor(a).ok());
}

TEST(QrTest, RDiagonalNonZero) {
  Rng rng(47);
  auto qr = QrFactorization::factor(Matrix::random(10, 6, rng));
  ASSERT_TRUE(qr.ok());
  const Matrix r = qr.value().r();
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NE(r(i, i), 0.0);
  // Strictly upper triangular below the diagonal.
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = j + 1; i < 6; ++i) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(QrTest, QtPreservesNorm) {
  Rng rng(48);
  const Matrix a = Matrix::random(12, 5, rng);
  auto qr = QrFactorization::factor(a);
  ASSERT_TRUE(qr.ok());
  const Vector b = random_vector(12, rng);
  auto y = qr.value().apply_qt(b);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(nrm2(y.value()), nrm2(b), 1e-9) << "Q^T is orthogonal";
}

// ---- eigensolvers ----

TEST(EigenTest, DiagonalMatrixEigenvalues) {
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 1;
  a(2, 2) = 2;
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  ASSERT_EQ(eig.value().values.size(), 3u);
  EXPECT_NEAR(eig.value().values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.value().values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.value().values[2], 3.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;  // eigenvalues 1 and 3
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.value().values[1], 3.0, 1e-10);
}

class EigenPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(EigenPropertyTest, ResidualAndOrthogonality) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_spd(n, rng);
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  const auto& [values, vectors] = eig.value();

  const double scale = a.max_abs();
  for (std::size_t j = 0; j < n; ++j) {
    // A v = lambda v
    Vector v(vectors.col(j), vectors.col(j) + n);
    Vector av(n, 0.0);
    gemv(1.0, a, v, 0.0, av);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], values[j] * v[i], 1e-7 * scale) << "pair " << j;
    }
    // SPD: all eigenvalues positive.
    EXPECT_GT(values[j], 0.0);
    // Ascending order.
    if (j > 0) {
      EXPECT_LE(values[j - 1], values[j] + 1e-12);
    }
  }
  // Trace equals eigenvalue sum.
  double trace = 0, sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-7 * scale * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(SolveCase{2, 50}, SolveCase{5, 51}, SolveCase{10, 52},
                                           SolveCase{20, 53}, SolveCase{40, 54}));

TEST(EigenTest, AsymmetricRejected) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;  // a(1,0) stays 0
  EXPECT_FALSE(jacobi_eigen(a).ok());
}

TEST(EigenTest, PowerIterationFindsDominantPair) {
  Rng rng(55);
  const Matrix a = Matrix::random_spd(15, rng);
  auto full = jacobi_eigen(a);
  ASSERT_TRUE(full.ok());
  const double lambda_max = full.value().values.back();

  Rng rng2(56);
  auto pi = power_iteration(a, rng2);
  ASSERT_TRUE(pi.ok());
  EXPECT_TRUE(pi.value().converged);
  EXPECT_NEAR(pi.value().eigenvalue, lambda_max, 1e-6 * lambda_max);
}

// ---- tridiagonal ----

TEST(TridiagTest, KnownSystem) {
  // 2x2: [2 1; 1 2] x = [3; 3] -> x = [1; 1]
  auto x = solve_tridiagonal(Vector{1}, Vector{2, 2}, Vector{1}, Vector{3, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 1.0, 1e-12);
}

TEST(TridiagTest, SingleUnknown) {
  auto x = solve_tridiagonal({}, Vector{4}, {}, Vector{8});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x.value()[0], 2.0);
}

class TridiagPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(TridiagPropertyTest, MatchesDenseSolve) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  Vector sub(n - 1), diag(n), super(n - 1), rhs(n);
  for (std::size_t i = 0; i < n - 1; ++i) {
    sub[i] = rng.uniform(-1, 1);
    super[i] = rng.uniform(-1, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 4.0 + rng.uniform(0, 1);  // diagonally dominant
    rhs[i] = rng.uniform(-10, 10);
  }
  auto x = solve_tridiagonal(sub, diag, super, rhs);
  ASSERT_TRUE(x.ok());

  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = diag[i];
    if (i > 0) a(i, i - 1) = sub[i - 1];
    if (i + 1 < n) a(i, i + 1) = super[i];
  }
  auto x_dense = dgesv(a, rhs);
  ASSERT_TRUE(x_dense.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_dense.value()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagPropertyTest,
                         ::testing::Values(SolveCase{2, 60}, SolveCase{5, 61}, SolveCase{20, 62},
                                           SolveCase{100, 63}, SolveCase{500, 64}));

TEST(TridiagTest, SizeMismatchRejected) {
  EXPECT_FALSE(solve_tridiagonal(Vector{1, 2}, Vector{1, 2}, Vector{1}, Vector{1, 2}).ok());
  EXPECT_FALSE(solve_tridiagonal({}, {}, {}, {}).ok());
}

TEST(TridiagTest, ZeroPivotRejected) {
  EXPECT_FALSE(solve_tridiagonal(Vector{1}, Vector{0, 1}, Vector{1}, Vector{1, 1}).ok());
}

// ---- rating ----

TEST(RatingTest, ProducesPositiveRate) {
  const Rating r = linpack_rating(/*n=*/100, /*repeats=*/1);
  EXPECT_GT(r.mflops, 0.0);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.order, 100u);
}

TEST(RatingTest, DeterministicMatrixSolvable) {
  // Two ratings on the same host should land within an order of magnitude
  // (the kernel is deterministic; scheduling noise is bounded by best-of).
  const Rating a = linpack_rating(80, 2);
  const Rating b = linpack_rating(80, 2);
  EXPECT_LT(a.mflops / b.mflops, 10.0);
  EXPECT_GT(a.mflops / b.mflops, 0.1);
}

}  // namespace
}  // namespace ns::linalg
