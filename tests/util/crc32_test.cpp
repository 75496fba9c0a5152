// CRC-32 (IEEE, reflected): known-answer vectors, incremental equivalence,
// sensitivity — the checksum every persist-layer section rides on — and the
// slicing-by-8 loop against a byte-at-a-time reference.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace gretel::util {
namespace {

TEST(Crc32, KnownAnswerVectors) {
  // The canonical check value of the CRC-32/ISO-HDLC family.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32_update(0, std::string_view(data).substr(0, split));
    crc = crc32_update(crc, std::string_view(data).substr(split));
    EXPECT_EQ(crc, crc32(data)) << "split at " << split;
  }
}

TEST(Crc32, EveryBitFlipChangesTheSum) {
  const std::string data = "GRTCKP01 section body";
  const auto base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = data;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      EXPECT_NE(crc32(mutated), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, ZeroBytesAreNotTransparent) {
  // Appending zeros must change the sum (a naive additive checksum fails
  // this; truncation detection depends on it).
  EXPECT_NE(crc32(std::string("abc")), crc32(std::string("abc\0", 4)));
}

// The constant-evaluation path (the byte loop) gives the check value too.
static_assert(crc32("123456789") == 0xCBF43926u);

// Bit-at-a-time CRC-32, no tables: the reference the sliced loop must match.
std::uint32_t reference_crc32(std::uint32_t crc, std::string_view data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  std::mt19937_64 rng(0xC3C32);
  std::string buf(4100 + 8, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng());
  for (std::size_t len = 0; len <= 4100; len += (len < 64 || len >= 4090 ? 1 : 37)) {
    // Every start offset modulo 8, so the word loads land at every
    // alignment.
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data = std::string_view(buf).substr(offset, len);
      const std::uint32_t want = reference_crc32(0, data);
      ASSERT_EQ(crc32(data), want) << "len " << len << " offset " << offset;
      // Incremental: an arbitrary split, the second chunk seeded with the
      // first chunk's CRC.
      const std::size_t split = len == 0 ? 0 : rng() % (len + 1);
      const std::uint32_t head = crc32_update(0, data.substr(0, split));
      ASSERT_EQ(crc32_update(head, data.substr(split)), want)
          << "len " << len << " offset " << offset << " split " << split;
    }
  }
}

}  // namespace
}  // namespace gretel::util
