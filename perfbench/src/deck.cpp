#include "deck.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

using ns::Rng;
using ns::dsl::DataObject;
using ns::linalg::Matrix;
using ns::linalg::Vector;

namespace {

constexpr std::size_t kMiB = 1u << 20;

/// Integer-valued entries in [-bound, bound]: sums and products of these stay
/// exact in double far beyond the sizes used here, so any summation order
/// the server's kernels choose yields the same result bit for bit.
Vector int_vector(std::size_t n, Rng& rng, int bound) {
  Vector v(n);
  for (auto& x : v) x = static_cast<double>(rng.uniform_int(-bound, bound));
  return v;
}

Matrix int_matrix(std::size_t n, Rng& rng, int bound) {
  return Matrix(n, n, int_vector(n * n, rng, bound));
}

/// Symmetric and strictly diagonally dominant with a positive diagonal, so
/// positive definite (Gershgorin) — built in O(n^2), unlike B^T B.
Matrix spd_matrix(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    a(j, j) = static_cast<double>(n) + 1.0;
  }
  return a;
}

/// y = A x, column-major, in the benchmark's own loop.
Vector mat_vec(const Matrix& a, const Vector& x) {
  Vector y(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double* col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += col[i] * x[j];
  }
  return y;
}

double inf_norm(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double inf_norm(const Matrix& a) {
  Vector row(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) row[i] += std::abs(a(i, j));
  }
  return inf_norm(row);
}

Item make_item(std::string problem, std::string label, std::vector<DataObject> args,
               double flops) {
  Item item;
  item.problem = std::move(problem);
  item.label = std::move(label);
  item.args = std::move(args);
  item.flops = flops;
  item.input_bytes = ns::dsl::args_byte_size(item.args);
  return item;
}

Item ddot_item(std::size_t n, Rng& rng, const std::string& size_label) {
  Vector x = int_vector(n, rng, 8);
  Vector y = int_vector(n, rng, 8);
  double expect = 0.0;
  for (std::size_t i = 0; i < n; ++i) expect += x[i] * y[i];
  Item item = make_item("ddot", "ddot/" + size_label,
                        {DataObject(std::move(x)), DataObject(std::move(y))}, 2.0 * n);
  item.expect_scalar = expect;
  return item;
}

Item daxpy_item(std::size_t n, Rng& rng, const std::string& size_label) {
  // A dyadic alpha keeps alpha * x + y exact for integer x and y.
  const double alpha = static_cast<double>(rng.uniform_int(-12, 12)) / 4.0 + 0.125;
  return make_item("daxpy", "daxpy/" + size_label,
                   {DataObject(alpha), DataObject(int_vector(n, rng, 1000)),
                    DataObject(int_vector(n, rng, 1000))},
                   2.0 * n);
}

Item dgemv_item(std::size_t m, Rng& rng) {
  Matrix a = int_matrix(m, rng, 8);
  Vector x = int_vector(m, rng, 8);
  Vector expect = mat_vec(a, x);
  Item item = make_item("dgemv", "dgemv/" + std::to_string(m),
                        {DataObject(std::move(a)), DataObject(std::move(x))},
                        2.0 * static_cast<double>(m * m));
  item.expect = std::move(expect);
  return item;
}

Item tridiag_item(std::size_t n, Rng& rng) {
  Vector sub(n - 1), diag(n), super(n - 1), rhs(n);
  for (auto& v : sub) v = rng.uniform(-1.0, 1.0);
  for (auto& v : super) v = rng.uniform(-1.0, 1.0);
  for (auto& v : diag) v = rng.uniform(2.5, 4.0);  // strictly dominant
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  return make_item("tridiag", "tridiag/" + std::to_string(n),
                   {DataObject(std::move(sub)), DataObject(std::move(diag)),
                    DataObject(std::move(super)), DataObject(std::move(rhs))},
                   8.0 * static_cast<double>(n));
}

Item solve_item(const std::string& problem, std::size_t n, Rng& rng) {
  Matrix a = problem == "dposv" ? spd_matrix(n, rng) : Matrix::random_diag_dominant(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const double nd = static_cast<double>(n);
  const double flops = (problem == "dposv" ? 1.0 / 3.0 : 2.0 / 3.0) * nd * nd * nd;
  return make_item(problem, problem + "/" + std::to_string(n),
                   {DataObject(std::move(a)), DataObject(std::move(b))}, flops);
}

Item dgemm_item(std::size_t n, Rng& rng) {
  Matrix a = int_matrix(n, rng, 8);
  Matrix b = int_matrix(n, rng, 8);
  Vector r = int_vector(n, rng, 8);
  Vector expect = mat_vec(a, mat_vec(b, r));
  const double nd = static_cast<double>(n);
  Item item = make_item("dgemm", "dgemm/" + std::to_string(n),
                        {DataObject(std::move(a)), DataObject(std::move(b))}, 2.0 * nd * nd * nd);
  item.expect = std::move(expect);
  item.probe = std::move(r);
  return item;
}

std::vector<Item> rpc_small_deck(Rng& rng) {
  std::vector<Item> deck;
  constexpr int kReplicas = 4;
  for (int rep = 0; rep < kReplicas; ++rep) {
    for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
      const std::string label = std::to_string(n);
      deck.push_back(ddot_item(n, rng, label));
      deck.push_back(daxpy_item(n, rng, label));
      deck.push_back(tridiag_item(n, rng));
      // Square operand of about n elements.
      deck.push_back(dgemv_item(static_cast<std::size_t>(std::lround(std::sqrt(n))), rng));
    }
  }
  return deck;
}

std::vector<Item> bulk_args_deck(Rng& rng) {
  // Per problem, 13 calls with 1 MiB operands, 5 with 4 MiB and 1 with
  // 16 MiB. The median falls inside the 1 MiB calls and the 90th percentile
  // inside the 4 MiB calls, not on a boundary between size classes where it
  // would jump between modes from run to run; the 4 and 16 MiB calls carry
  // three quarters of the bytes.
  static constexpr std::pair<std::size_t, int> kMix[] = {{1, 13}, {4, 5}, {16, 1}};
  std::vector<Item> deck;
  for (const auto& [mib, count] : kMix) {
    const std::size_t n = mib * kMiB / sizeof(double);
    const std::string label = std::to_string(mib) + "MiB";
    for (int k = 0; k < count; ++k) {
      deck.push_back(ddot_item(n, rng, label));
      deck.push_back(daxpy_item(n, rng, label));
    }
  }
  return deck;
}

std::vector<Item> dense_farm_deck(Rng& rng) {
  std::vector<Item> deck;
  constexpr int kReplicas = 2;
  for (int rep = 0; rep < kReplicas; ++rep) {
    for (std::size_t n : {128u, 256u, 384u, 512u}) {
      deck.push_back(solve_item("dgesv", n, rng));
      deck.push_back(solve_item("dposv", n, rng));
      deck.push_back(dgemm_item(n, rng));
    }
  }
  return deck;
}

std::string residual_check(const Matrix& a, const Vector& b, const Vector& x) {
  if (x.size() != a.cols()) return "solution has the wrong length";
  Vector r = mat_vec(a, x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  const double scale = inf_norm(a) * inf_norm(x) + inf_norm(b);
  const double res = inf_norm(r);
  if (!(res <= 1e-9 * scale)) {
    return "residual " + std::to_string(res) + " exceeds bound " + std::to_string(1e-9 * scale);
  }
  return {};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rpc_small", "bulk_args", "dense_farm"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const auto& names = workload_names();
  const auto pos = std::find(names.begin(), names.end(), name);
  if (pos == names.end()) throw std::invalid_argument("unknown workload " + name);
  // Each workload draws from its own stream of the same seed.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(pos - names.begin()));
  Workload w;
  w.name = name;
  if (name == "rpc_small") {
    w.servers = ns::testkit::uniform_pool(2);
    w.deck = rpc_small_deck(rng);
  } else if (name == "bulk_args") {
    w.servers = ns::testkit::uniform_pool(1);
    w.deck = bulk_args_deck(rng);
  } else {
    w.servers = ns::testkit::uniform_pool(2, /*workers=*/1);
    w.deck = dense_farm_deck(rng);
  }
  return w;
}

std::string verify(const Item& item, const std::vector<DataObject>& outputs) {
  if (outputs.size() != 1) return "expected one output, got " + std::to_string(outputs.size());
  const DataObject& out = outputs.front();
  const auto& args = item.args;

  if (item.problem == "ddot") {
    if (!out.is_double()) return "ddot output is not a double";
    if (out.as_double() != item.expect_scalar) {
      return "ddot " + std::to_string(out.as_double()) + " != " +
             std::to_string(item.expect_scalar);
    }
    return {};
  }
  if (item.problem == "dgemm") {
    // Freivalds: with integer-valued A, B and r, C r is exact.
    if (!out.is_matrix()) return "dgemm output is not a matrix";
    const Matrix& c = out.as_matrix();
    if (c.rows() != item.probe.size() || c.cols() != item.probe.size()) {
      return "dgemm output has the wrong shape";
    }
    return mat_vec(c, item.probe) == item.expect ? std::string{} : "dgemm fails C r = A (B r)";
  }
  if (!out.is_vector()) return item.problem + " output is not a vector";
  const Vector& y = out.as_vector();

  if (item.problem == "daxpy") {
    const double alpha = args[0].as_double();
    const Vector& x = args[1].as_vector();
    const Vector& y0 = args[2].as_vector();
    if (y.size() != x.size()) return "daxpy output has the wrong length";
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y[i] != y0[i] + alpha * x[i]) return "daxpy wrong at " + std::to_string(i);
    }
    return {};
  }
  if (item.problem == "dgemv") {
    return y == item.expect ? std::string{} : "dgemv output differs from A x";
  }
  if (item.problem == "tridiag") {
    const Vector& sub = args[0].as_vector();
    const Vector& diag = args[1].as_vector();
    const Vector& super = args[2].as_vector();
    const Vector& rhs = args[3].as_vector();
    const std::size_t n = diag.size();
    if (y.size() != n) return "tridiag solution has the wrong length";
    double res = 0.0, norm_t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double ti = diag[i] * y[i];
      double row = std::abs(diag[i]);
      if (i > 0) ti += sub[i - 1] * y[i - 1], row += std::abs(sub[i - 1]);
      if (i + 1 < n) ti += super[i] * y[i + 1], row += std::abs(super[i]);
      res = std::max(res, std::abs(ti - rhs[i]));
      norm_t = std::max(norm_t, row);
    }
    const double bound = 1e-9 * (norm_t * inf_norm(y) + inf_norm(rhs));
    return res <= bound ? std::string{} : "tridiag residual " + std::to_string(res);
  }
  // dgesv / dposv
  return residual_check(args[0].as_matrix(), args[1].as_vector(), y);
}

}  // namespace perfbench
