// Byte search eight bytes at a time in a plain 64-bit word (SWAR), for the
// capture tap's scans over raw frames: a few ALU operations per word and no
// call per match.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gretel::util::swar {

inline constexpr std::uint64_t kOnes = 0x0101010101010101ull;

inline std::uint64_t load(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// Sets the high bit of every byte of `word` equal to `c`.  A byte after a
// match may be flagged too (the borrow of the subtraction), so callers
// re-check each flagged byte; no matching byte is ever missed.
inline std::uint64_t match(std::uint64_t word, char c) {
  const std::uint64_t x = word ^ (kOnes * static_cast<unsigned char>(c));
  return (x - kOnes) & ~x & (kOnes << 7);
}

// Offset, within the eight loaded bytes, of the lowest-addressed flag of a
// non-zero match() result.
inline std::size_t first(std::uint64_t flags) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(flags)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(flags)) / 8;
  }
}

// Clears the flag first() reported.
inline std::uint64_t drop_first(std::uint64_t flags) {
  if constexpr (std::endian::native == std::endian::little) {
    return flags & (flags - 1);
  } else {
    return flags & ~(std::uint64_t{1} << (63 - std::countl_zero(flags)));
  }
}

}  // namespace gretel::util::swar
