#include "serial/crc32.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace ns::serial {

namespace {

// Slicing-by-8 (Kounavis & Berry): table k maps a byte to its CRC
// contribution when k further zero bytes follow it, so one step folds eight
// input bytes with eight independent lookups instead of eight dependent
// ones. Row 0 is the classic bytewise table, and the result is bit-identical
// to the bytewise loop for every input, split and alignment.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load from explicit bytes: endian-neutral, and compilers fuse
// it into a single unaligned load on little-endian targets.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t update_portable(std::uint32_t crc, const unsigned char* bytes,
                             std::size_t size) noexcept {
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
          kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef NS_CRC32_CLMUL
// a's low half times k's low, XOR its high half times k's high, onto b: a
// moved forward by the distance k encodes. Inlined into fold_clmul.
[[gnu::target("pclmul,sse4.1"), gnu::always_inline]] inline __m128i fold(__m128i a, __m128i k,
                                                                        __m128i b) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)), b);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit accumulators each absorb
// one 16-byte lane of every 64-byte block: multiplying an accumulator's two
// 64-bit halves by x^(512+32) and x^(512-32) mod P (k1, k2) moves it 64
// bytes forward, where it is XORed with the next block. The four are then
// folded into one with the 16-byte-distance constants (k3, k4), which also
// absorb the remaining 16-byte blocks. k5 folds 128 bits to 64, and a
// Barrett reduction by P and mu = x^64 / P leaves the 32-bit CRC.
// `size` is a multiple of 16 and at least 64; `crc` is the running
// (pre-final-XOR) value, and the result is too.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t fold_clmul(std::uint32_t crc,
                                                        const unsigned char* bytes,
                                                        std::size_t size) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i x0 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(bytes + 16);
  __m128i x2 = load(bytes + 32);
  __m128i x3 = load(bytes + 48);
  for (bytes += 64, size -= 64; size >= 64; bytes += 64, size -= 64) {
    x0 = fold(x0, k1k2, load(bytes));
    x1 = fold(x1, k1k2, load(bytes + 16));
    x2 = fold(x2, k1k2, load(bytes + 32));
    x3 = fold(x3, k1k2, load(bytes + 48));
  }
  x0 = fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; size >= 16; bytes += 16, size -= 16) x0 = fold(x0, k3k4, load(bytes));

  // 128 -> 64 bits: the low half times k4, onto the high half; then the
  // low 32 bits times k5, onto the remaining 64.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = low32(low32(x) * mu), crc = x ^ q * P, read from bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}
#endif

}  // namespace

const std::vector<Crc32Path>& supported_crc32_paths() {
  static const std::vector<Crc32Path> paths = [] {
    std::vector<Crc32Path> out{Crc32Path::kPortable};
#ifdef NS_CRC32_CLMUL
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
      out.push_back(Crc32Path::kClmul);
    }
#endif
    return out;
  }();
  return paths;
}

Crc32Path native_crc32_path() { return supported_crc32_paths().back(); }

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size,
                           Crc32Path path) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
#ifdef NS_CRC32_CLMUL
  if (path == Crc32Path::kClmul && size >= 64) {
    const std::size_t blocks = size & ~std::size_t{15};
    crc = fold_clmul(crc, bytes, blocks);
    bytes += blocks;
    size -= blocks;
  }
#else
  (void)path;
#endif
  return update_portable(crc, bytes, size);
}

std::uint32_t crc32(const void* data, std::size_t size, Crc32Path path) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, size, path));
}

}  // namespace ns::serial
