// E8 (micro): substrate kernel rates via google-benchmark.
//
// Confirms the numerical substrate behaves like its LAPACK/BLAS/ITPACK
// archetypes: dgemm/LU/Cholesky scale as O(N^3) with sane constant factors,
// gemv as O(N^2), CG per-iteration as O(nnz), and serialization moves
// GB/s-class data. These rates feed the discussion of the predictor's
// complexity models in EXPERIMENTS.md.
//
// Besides google-benchmark's own flags it takes the harness flags:
//   --quick        only dgemm/LU/Cholesky at n = 128/256/512, 0.2 s each
//   --json <path>  write every Mflops counter as a bench.linalg.<name>.<n>.mflops
//                  gauge (e.g. bench.linalg.gemm.256.mflops) in the harness
//                  JSON that scripts/check_bench_regression.py gates
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/harness.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "dsl/value.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse.hpp"

namespace {

using namespace ns;
using namespace ns::linalg;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::random(n, n, rng);
  const Vector x = random_vector(n, rng);
  Vector y(n);
  for (auto _ : state) {
    gemv(1.0, a, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector b = random_vector(n, rng);
  for (auto _ : state) {
    auto x = dgesv(a, b);
    benchmark::DoNotOptimize(x);
  }
  state.counters["Mflops"] = benchmark::Counter(
      lu_flops(n) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuSolve)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Matrix a = Matrix::random_spd(n, rng);
  const Vector b = random_vector(n, rng);
  for (auto _ : state) {
    auto x = dposv(a, b);
    benchmark::DoNotOptimize(x);
  }
  state.counters["Mflops"] = benchmark::Counter(
      cholesky_flops(n) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CholeskySolve)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

void BM_QrLeastSquares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::random(2 * n, n, rng);
  const Vector b = random_vector(2 * n, rng);
  for (auto _ : state) {
    auto x = dgels(a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(32)->Arg(64)->Arg(128);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Matrix a = Matrix::random_spd(n, rng);
  for (auto _ : state) {
    auto eig = jacobi_eigen(a);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseMatvec(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = poisson_2d(grid, grid);
  Vector x(grid * grid, 1.0);
  Vector y;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseMatvec)->Arg(32)->Arg(64)->Arg(128);

void BM_ConjugateGradient(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = poisson_2d(grid, grid);
  const Vector b(grid * grid, 1.0);
  IterativeOptions opts;
  opts.tolerance = 1e-8;
  for (auto _ : state) {
    auto res = conjugate_gradient(a, b, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(16)->Arg(32)->Arg(64);

void BM_MarshalMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const dsl::DataObject obj(Matrix::random(n, n, rng));
  for (auto _ : state) {
    serial::Encoder enc;
    obj.encode(enc);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obj.byte_size()));
}
BENCHMARK(BM_MarshalMatrix)->Arg(64)->Arg(256)->Arg(512);

void BM_UnmarshalMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const dsl::DataObject obj(Matrix::random(n, n, rng));
  serial::Encoder enc;
  obj.encode(enc);
  const auto bytes = enc.take();
  for (auto _ : state) {
    serial::Decoder dec(bytes);
    auto back = dsl::DataObject::decode(dec);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_UnmarshalMatrix)->Arg(64)->Arg(256)->Arg(512);

/// Console output as usual, plus each run's Mflops rate mirrored into a
/// metrics gauge: BM_Gemm/256 -> bench.linalg.gemm.256.mflops.
class GaugeReporter : public benchmark::ConsoleReporter {
 public:
  GaugeReporter() : ConsoleReporter(isatty(STDOUT_FILENO) != 0 ? OO_Color : OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      const auto mflops = run.counters.find("Mflops");
      if (run.run_type != Run::RT_Iteration || mflops == run.counters.end()) continue;
      std::string name = run.benchmark_name();
      name = name.substr(name.find('_') + 1);
      std::transform(name.begin(), name.end(), name.begin(), [](unsigned char ch) {
        return ch == '/' ? '.' : static_cast<char>(std::tolower(ch));
      });
      metrics::gauge("bench.linalg." + name + ".mflops").set(mflops->second.value);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string quick_filter = "--benchmark_filter=^BM_(Gemm|LuSolve|CholeskySolve)/(128|256|512)$";
  std::string quick_min_time = "--benchmark_min_time=0.2";
  if (quick) {
    args.insert(args.begin() + 1, {quick_filter.data(), quick_min_time.data()});
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 2;
  GaugeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !ns::bench::write_metrics_json(json_path, "E8", quick)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
