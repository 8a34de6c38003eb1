#pragma once

// CRC-32 (IEEE 802.3 polynomial, reflected).  Wire frames and checkpoint
// files carry a checksum so a corrupted or truncated buffer is detected
// and surfaces as a typed error instead of feeding garbage into the
// decode paths.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace paralagg::vmpi {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr auto kCrc32Table = make_crc32_table();

}  // namespace detail

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFU;

/// Feed bytes into a raw (un-finalized) CRC register.  Start from
/// kCrc32Init, chain over buffer fragments, finalize with ^ kCrc32Init.
inline std::uint32_t crc32_update(std::uint32_t state, std::span<const std::byte> data) {
  for (const std::byte b : data) {
    state = detail::kCrc32Table[(state ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^
            (state >> 8);
  }
  return state;
}

/// CRC-32 of a byte span (init/final XOR 0xFFFFFFFF, as in zlib's crc32).
inline std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32_update(kCrc32Init, data) ^ kCrc32Init;
}

}  // namespace paralagg::vmpi
