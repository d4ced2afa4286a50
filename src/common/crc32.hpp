#pragma once

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) — the integrity
// check of every exec::encodeFrame frame (pipe, fleet, advisor server and
// checkpoint file) and the checkpoint's config digest. Table-driven
// with a constexpr-generated table; byte-order independent because it
// only ever consumes bytes.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace occm {

namespace detail {

constexpr std::array<std::uint32_t, 256> makeCrc32Table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = makeCrc32Table();

}  // namespace detail

/// CRC-32 of a byte string (standard init/final XOR with 0xFFFFFFFF).
[[nodiscard]] constexpr std::uint32_t crc32(std::string_view data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (char ch : data) {
    const auto byte = static_cast<std::uint8_t>(ch);
    crc = detail::kCrc32Table[(crc ^ byte) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace occm
