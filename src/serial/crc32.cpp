#include "serial/crc32.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
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

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, size));
}

}  // namespace ns::serial
