// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check shared by every on-disk format that must detect torn writes and
// bit rot: the GRTFDB02 fingerprint database, the two GRTCKP02 checkpoint
// bodies, and the report-journal records (src/persist/).
//
// Table-driven, one table generated at compile time.  The incremental form
// (seed in, crc out) lets callers checksum a file in chunks; the one-shot
// overload covers the common whole-buffer case.  Matches zlib's crc32()
// bit-for-bit, so external tooling can verify the files.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gretel::util {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

// Incremental update: feed chunks in order, threading the returned value
// back in as `crc`.  Start from 0.
constexpr std::uint32_t crc32_update(std::uint32_t crc,
                                     std::string_view data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c = detail::kCrc32Table[(c ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// One-shot checksum of a whole buffer.
constexpr std::uint32_t crc32(std::string_view data) {
  return crc32_update(0, data);
}

}  // namespace gretel::util
