#include "linalg/kernel.hpp"

#include <algorithm>
#include <memory>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_KERNEL_AVX2 1
#endif

namespace ns::linalg::kernel {

namespace {

// Register tile: an MR x NR block of C stays in accumulators for the whole
// k loop. 8 x 4 is 8 AVX2 (16 SSE2) registers; GCC's SLP vectorizer spills
// part of a larger tile, which measured slower for both ISAs.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 4;
// Cache blocks: a KC x NR sliver of packed B stays in L1, an MC x KC block
// of packed A in L2, and a KC x NC panel of packed B in L3.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 128;
constexpr std::size_t kNc = 1536;

/// Copy the rows x depth block x(r, d) = scale * src[r * row_step + d * depth_step]
/// into W-row slivers, each depth-major and zero-padded to W rows, so the
/// micro-kernel reads both operands with unit stride.
template <std::size_t W>
void pack(std::size_t rows, std::size_t depth, double scale, const double* src,
          std::size_t row_step, std::size_t depth_step, double* out) {
  for (std::size_t r0 = 0; r0 < rows; r0 += W) {
    const std::size_t w = std::min(W, rows - r0);
    for (std::size_t d = 0; d < depth; ++d) {
      const double* s = src + r0 * row_step + d * depth_step;
      for (std::size_t r = 0; r < w; ++r) out[r] = scale * s[r * row_step];
      for (std::size_t r = w; r < W; ++r) out[r] = 0.0;
      out += W;
    }
  }
}

/// c(0:MR, 0:NR) += sum over p < kc of a(:, p) b(:, p)^T for packed slivers
/// a (MR per step) and b (NR per step). The fixed-trip loops unroll into
/// vector FMAs on a register-resident accumulator tile.
[[gnu::always_inline]] inline void micro_kernel(std::size_t kc, const double* __restrict a,
                                                const double* __restrict b, double* __restrict c,
                                                std::size_t ldc) {
  double acc[kNr][kMr] = {};
  for (std::size_t p = 0; p < kc; ++p, a += kMr, b += kNr) {
    for (std::size_t j = 0; j < kNr; ++j) {
      for (std::size_t i = 0; i < kMr; ++i) acc[j][i] += a[i] * b[j];
    }
  }
  for (std::size_t j = 0; j < kNr; ++j) {
    for (std::size_t i = 0; i < kMr; ++i) c[i + j * ldc] += acc[j][i];
  }
}

/// C(mc x nc) += packed A(mc x kc) * packed B(kc x nc), one register tile at
/// a time. Edge tiles go through a zeroed full-size scratch tile so the
/// micro-kernel only ever sees whole tiles.
[[gnu::always_inline]] inline void macro_body(std::size_t mc, std::size_t nc, std::size_t kc,
                                              const double* pa, const double* pb, double* c,
                                              std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < nc; j0 += kNr) {
    const std::size_t nr = std::min(kNr, nc - j0);
    for (std::size_t i0 = 0; i0 < mc; i0 += kMr) {
      const std::size_t mr = std::min(kMr, mc - i0);
      double* cij = c + i0 + j0 * ldc;
      if (mr == kMr && nr == kNr) {
        micro_kernel(kc, pa + i0 * kc, pb + j0 * kc, cij, ldc);
        continue;
      }
      double tile[kMr * kNr] = {};
      micro_kernel(kc, pa + i0 * kc, pb + j0 * kc, tile, kMr);
      for (std::size_t j = 0; j < nr; ++j) {
        for (std::size_t i = 0; i < mr; ++i) cij[i + j * ldc] += tile[i + j * kMr];
      }
    }
  }
}

using MacroKernel = void (*)(std::size_t, std::size_t, std::size_t, const double*, const double*,
                             double*, std::size_t);

void macro_baseline(std::size_t mc, std::size_t nc, std::size_t kc, const double* pa,
                    const double* pb, double* c, std::size_t ldc) {
  macro_body(mc, nc, kc, pa, pb, c, ldc);
}

#ifdef NS_KERNEL_AVX2
[[gnu::target("avx2,fma")]] void macro_avx2(std::size_t mc, std::size_t nc, std::size_t kc,
                                            const double* pa, const double* pb, double* c,
                                            std::size_t ldc) {
  macro_body(mc, nc, kc, pa, pb, c, ldc);
}
#endif

MacroKernel macro_kernel(Isa isa) {
#ifdef NS_KERNEL_AVX2
  if (isa == Isa::kAvx2Fma) return macro_avx2;
#else
  (void)isa;
#endif
  return macro_baseline;
}

/// C = beta * C, with beta == 0 writing zeros over whatever C held.
void scale(std::size_t m, std::size_t n, double beta, double* c, std::size_t ldc) {
  if (beta == 1.0) return;
  for (std::size_t j = 0; j < n; ++j) {
    double* col = c + j * ldc;
    if (beta == 0.0) {
      std::fill(col, col + m, 0.0);
    } else {
      for (std::size_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
}

}  // namespace

const std::vector<Isa>& supported_isas() {
  static const std::vector<Isa> isas = [] {
    std::vector<Isa> out{Isa::kBaseline};
#ifdef NS_KERNEL_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      out.push_back(Isa::kAvx2Fma);
    }
#endif
    return out;
  }();
  return isas;
}

Isa native_isa() { return supported_isas().back(); }

void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, bool b_transposed, double beta,
          double* c, std::size_t ldc, Isa isa) {
  if (m == 0 || n == 0) return;
  scale(m, n, beta, c, ldc);
  if (k == 0 || alpha == 0.0) return;

  const MacroKernel macro = macro_kernel(isa);
  // Steps through op(B) along its rows (p) and columns (j).
  const std::size_t b_row_step = b_transposed ? ldb : 1;
  const std::size_t b_col_step = b_transposed ? 1 : ldb;
  const std::size_t mc_max = std::min(kMc, m);
  const std::size_t nc_max = std::min(kNc, n);
  const std::size_t kc_max = std::min(kKc, k);
  const auto packed_a = std::make_unique_for_overwrite<double[]>(
      (mc_max + kMr - 1) / kMr * kMr * kc_max);
  const auto packed_b = std::make_unique_for_overwrite<double[]>(
      (nc_max + kNr - 1) / kNr * kNr * kc_max);

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      pack<kNr>(nc, kc, 1.0, b + pc * b_row_step + jc * b_col_step, b_col_step, b_row_step,
                packed_b.get());
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        pack<kMr>(mc, kc, alpha, a + ic + pc * lda, 1, lda, packed_a.get());
        macro(mc, nc, kc, packed_a.get(), packed_b.get(), c + ic + jc * ldc, ldc);
      }
    }
  }
}

}  // namespace ns::linalg::kernel
