// util/binio.h: the word-wide puts against a shift-loop big-endian
// reference, the gets' round trip at every alignment, truncation
// rejection, and patch_u32 over a reserved slot.
#include "util/binio.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>

namespace gretel::util {
namespace {

// Most significant byte first, one shift per byte.
std::string reference_be(std::uint64_t v, int bytes) {
  std::string out;
  for (int i = bytes - 1; i >= 0; --i)
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  return out;
}

TEST(BinIo, WordPutsMatchByteReference) {
  std::mt19937_64 rng(0xB1B10);
  for (int round = 0; round < 2000; ++round) {
    // Random words, plus the all-zero and all-one edges.
    const std::uint64_t v =
        round == 0 ? 0 : round == 1 ? ~std::uint64_t{0} : rng();
    const double d = std::bit_cast<double>(v);
    // A prefix of 0-7 bytes puts every word at every alignment.
    const std::string prefix(static_cast<std::size_t>(round % 8), 'p');
    std::string out = prefix;
    put_u8(out, static_cast<std::uint8_t>(v));
    put_u16(out, static_cast<std::uint16_t>(v));
    put_u32(out, static_cast<std::uint32_t>(v));
    put_u64(out, v);
    put_i64(out, static_cast<std::int64_t>(v));
    put_f64(out, d);
    const std::string want = prefix + reference_be(v, 1) + reference_be(v, 2) +
                             reference_be(v, 4) + reference_be(v, 8) +
                             reference_be(v, 8) + reference_be(v, 8);
    ASSERT_EQ(out, want) << "round " << round;

    std::string_view in(out);
    in.remove_prefix(prefix.size());
    std::uint8_t u8 = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    double f64 = 0;
    ASSERT_TRUE(get_u8(in, u8) && get_u16(in, u16) && get_u32(in, u32) &&
                get_u64(in, u64) && get_i64(in, i64) && get_f64(in, f64));
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(u8, static_cast<std::uint8_t>(v));
    EXPECT_EQ(u16, static_cast<std::uint16_t>(v));
    EXPECT_EQ(u32, static_cast<std::uint32_t>(v));
    EXPECT_EQ(u64, v);
    EXPECT_EQ(i64, static_cast<std::int64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f64), v);  // NaNs bit-exact
  }
}

TEST(BinIo, GetsRejectTruncationWithoutConsuming) {
  const std::string bytes = reference_be(0x0102030405060708ull, 8);
  for (std::size_t len = 0; len < 8; ++len) {
    std::string_view in(bytes.data(), len);
    std::uint64_t u64 = 0;
    EXPECT_FALSE(get_u64(in, u64));
    EXPECT_EQ(in.size(), len);
    if (len < 4) {
      std::uint32_t u32 = 0;
      EXPECT_FALSE(get_u32(in, u32));
      EXPECT_EQ(in.size(), len);
    }
  }
}

TEST(BinIo, PatchU32OverwritesAReservedSlot) {
  std::string out = "ab";
  const std::size_t at = out.size();
  out.append(4, '\0');
  out += "cd";
  patch_u32(out, at, 0xDEADBEEFu);
  EXPECT_EQ(out, "ab" + reference_be(0xDEADBEEFu, 4) + "cd");
}

}  // namespace
}  // namespace gretel::util
