// CRC-32 (IEEE 802.3 polynomial, reflected) for frame integrity checks.
//
// One implementation (slicing-by-8, portable C++) serves wire frames, the
// job journal and spill files; its output is the standard CRC-32, so data
// written by any earlier build still verifies.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ns::serial {

/// One-shot CRC over a buffer.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// Incremental form: feed `crc32_update` a running value seeded with
/// `kCrc32Init` and finalize with `crc32_final`.
inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;
std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept;
inline std::uint32_t crc32_final(std::uint32_t crc) noexcept { return crc ^ 0xffffffffu; }

}  // namespace ns::serial
