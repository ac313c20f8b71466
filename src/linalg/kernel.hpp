// The dense level-3 kernel under dgemm, LU and Cholesky: one cache-blocked,
// packed matrix multiply on raw column-major blocks.
//
// Blocks of A and B are copied into contiguous slivers sized for the caches,
// and a register micro-kernel multiplies one sliver pair into an MR x NR
// tile of C held in accumulators. The micro-kernel is plain fixed-trip loops
// that the compiler vectorizes; on x86-64 a second copy of the macro-kernel
// is compiled for AVX2+FMA and picked at run time when the CPU has them.
#pragma once

#include <cstddef>
#include <vector>

namespace ns::linalg::kernel {

/// Instruction sets the gemm macro-kernel is compiled for.
enum class Isa { kBaseline, kAvx2Fma };

/// The copies this build can run on this CPU, baseline first.
const std::vector<Isa>& supported_isas();

/// The copy gemm() uses by default: the last of supported_isas().
Isa native_isa();

/// C = alpha * A op(B) + beta * C on column-major blocks, where element
/// (i, j) of a block X with leading dimension ldx is x[i + j * ldx].
/// A is m x k. op(B) is k x n: B itself, or with `b_transposed` the
/// transpose of an n x k block B. C is m x n and must not overlap A or B.
/// beta == 0 overwrites C without reading it, so NaN in C is ignored.
void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, bool b_transposed, double beta,
          double* c, std::size_t ldc, Isa isa = native_isa());

}  // namespace ns::linalg::kernel
