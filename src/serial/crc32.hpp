// CRC-32 (IEEE 802.3 polynomial, reflected) for frame integrity checks.
//
// One function serves wire frames, the job journal, spill files and
// checkpoint replication; its output is the standard CRC-32, so data written
// by any earlier build still verifies. Two copies compute it: portable
// slicing-by-8, and on x86-64 a carry-less-multiply fold (PCLMULQDQ) picked
// at run time when the CPU has it. The fold takes every 16-byte block of an
// input of 64 bytes or more; slicing-by-8 takes short inputs and the tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ns::serial {

/// Code paths the CRC is compiled for.
enum class Crc32Path { kPortable, kClmul };

/// The paths this build can run on this CPU, portable first.
const std::vector<Crc32Path>& supported_crc32_paths();

/// The path crc32() uses by default: the last of supported_crc32_paths().
Crc32Path native_crc32_path();

/// One-shot CRC over a buffer. `path` must be one of supported_crc32_paths();
/// every path gives the same result.
std::uint32_t crc32(const void* data, std::size_t size,
                    Crc32Path path = native_crc32_path()) noexcept;

/// Incremental form: feed `crc32_update` a running value seeded with
/// `kCrc32Init` and finalize with `crc32_final`.
inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;
std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size,
                           Crc32Path path = native_crc32_path()) noexcept;
inline std::uint32_t crc32_final(std::uint32_t crc) noexcept { return crc ^ 0xffffffffu; }

}  // namespace ns::serial
