// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check shared by every on-disk format that must detect torn writes and
// bit rot: the GRTFDB02 fingerprint database, the two GRTCKP02 checkpoint
// bodies, and the report-journal records (src/persist/).
//
// Slicing-by-8: eight tables generated at compile time let the loop fold
// eight input bytes per step (two unaligned 32-bit loads through memcpy)
// instead of one; the byte-at-a-time loop over table 0 handles the tail and
// every constant evaluation.  The incremental form (seed in, crc out) lets
// callers checksum a file in chunks; the one-shot overload covers the
// common whole-buffer case.  Matches zlib's crc32() bit-for-bit, so
// external tooling can verify the files.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace gretel::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight lookups advance the CRC eight bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Four input bytes as a little-endian word (any alignment).
inline std::uint32_t load_le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

}  // namespace detail

// Incremental update: feed chunks in order, threading the returned value
// back in as `crc`.  Start from 0.
constexpr std::uint32_t crc32_update(std::uint32_t crc,
                                     std::string_view data) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  if (!std::is_constant_evaluated()) {
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = detail::load_le32(p) ^ c;
      const std::uint32_t hi = detail::load_le32(p + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// One-shot checksum of a whole buffer.
constexpr std::uint32_t crc32(std::string_view data) {
  return crc32_update(0, data);
}

}  // namespace gretel::util
