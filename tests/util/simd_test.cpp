// Property tests pinning every util/simd.h kernel byte-identical to its
// scalar reference twin — the contract the detector's determinism guarantee
// (SIMD build output == scalar build output) rests on.
//
// Widths sweep 0..130 so every code path is exercised: empty input, the
// scalar tail alone, exactly one vector block, block boundaries ±1 for both
// the 16-lane u16 kernels and the 32-lane u8 kernels, and multi-block
// inputs with leftovers.  Needles are planted at the first, last and
// interior positions, duplicated, and omitted entirely; scans also run from
// odd offsets so unaligned loads are covered.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace gretel::simd {
namespace {

constexpr std::size_t kMaxWidth = 130;

std::vector<std::uint16_t> random_u16(util::Rng& rng, std::size_t n,
                                      std::uint16_t alphabet) {
  std::vector<std::uint16_t> out(n);
  for (auto& v : out) v = static_cast<std::uint16_t>(rng.next_below(alphabet));
  return out;
}

TEST(SimdKernels, ReportsAKnownKernelFamily) {
  const std::string k = compiled_kernel();
  EXPECT_TRUE(k == "avx2" || k == "scalar");
  EXPECT_STREQ(active_kernel(), compiled_kernel());
}

TEST(SimdKernels, ForceScalarReroutesDispatch) {
  set_force_scalar(true);
  EXPECT_STREQ(active_kernel(), "scalar");
  set_force_scalar(false);
}

TEST(SimdKernels, FindEqU16MatchesScalarAcrossWidths) {
  util::Rng rng(0x51D1);
  for (std::size_t n = 0; n <= kMaxWidth; ++n) {
    // Small alphabet: plenty of hits and duplicates at every width.
    auto data = random_u16(rng, n, 7);
    for (std::uint16_t v = 0; v < 8; ++v) {
      EXPECT_EQ(find_first_eq_u16(data.data(), n, v),
                scalar::find_first_eq_u16(data.data(), n, v))
          << "n=" << n << " v=" << v;
      EXPECT_EQ(find_last_eq_u16(data.data(), n, v),
                scalar::find_last_eq_u16(data.data(), n, v))
          << "n=" << n << " v=" << v;
    }
  }
}

TEST(SimdKernels, FindEqU16EdgePositions) {
  for (std::size_t n = 1; n <= kMaxWidth; ++n) {
    std::vector<std::uint16_t> data(n, 0xAAAA);
    for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      data.assign(n, 0xAAAA);
      data[pos] = 0x1234;
      EXPECT_EQ(find_first_eq_u16(data.data(), n, 0x1234), pos);
      EXPECT_EQ(find_last_eq_u16(data.data(), n, 0x1234), pos);
    }
    // Absent needle.
    data.assign(n, 0xAAAA);
    EXPECT_EQ(find_first_eq_u16(data.data(), n, 0x1234), npos);
    EXPECT_EQ(find_last_eq_u16(data.data(), n, 0x1234), npos);
  }
}

TEST(SimdKernels, FindEqU16DuplicatesPickCorrectEnd) {
  for (std::size_t n = 2; n <= kMaxWidth; ++n) {
    std::vector<std::uint16_t> data(n, 9);
    EXPECT_EQ(find_first_eq_u16(data.data(), n, 9), 0u);
    EXPECT_EQ(find_last_eq_u16(data.data(), n, 9), n - 1);
  }
}

TEST(SimdKernels, FindEqU16MisalignedBase) {
  // Start the scan at every offset into a buffer so vector loads hit
  // unaligned addresses.
  util::Rng rng(0xA11C);
  auto data = random_u16(rng, kMaxWidth, 5);
  for (std::size_t off = 0; off < 33 && off < data.size(); ++off) {
    const auto n = data.size() - off;
    for (std::uint16_t v = 0; v < 6; ++v) {
      EXPECT_EQ(find_first_eq_u16(data.data() + off, n, v),
                scalar::find_first_eq_u16(data.data() + off, n, v))
          << "off=" << off << " v=" << v;
      EXPECT_EQ(find_last_eq_u16(data.data() + off, n, v),
                scalar::find_last_eq_u16(data.data() + off, n, v))
          << "off=" << off << " v=" << v;
    }
  }
}

TEST(SimdKernels, FlagScansMatchScalarAcrossWidthsAndDensities) {
  util::Rng rng(0xF1A6);
  // Densities from all-clear through sparse to all-set.
  for (const int permille : {0, 8, 125, 500, 1000}) {
    for (std::size_t n = 0; n <= kMaxWidth; ++n) {
      std::vector<std::uint8_t> flags(n);
      for (auto& f : flags) {
        f = rng.next_below(1000) < static_cast<std::uint64_t>(permille)
                ? static_cast<std::uint8_t>(1 + rng.next_below(255))
                : 0;
      }
      EXPECT_EQ(find_first_set_u8(flags.data(), n),
                scalar::find_first_set_u8(flags.data(), n))
          << "n=" << n << " p=" << permille;
      EXPECT_EQ(count_set_u8(flags.data(), n),
                scalar::count_set_u8(flags.data(), n))
          << "n=" << n << " p=" << permille;
    }
  }
}

TEST(SimdKernels, FlagScanEdgePositions) {
  for (std::size_t n = 1; n <= kMaxWidth; ++n) {
    std::vector<std::uint8_t> flags(n, 0);
    for (std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      flags.assign(n, 0);
      flags[pos] = 0xFF;  // any nonzero value counts as set
      EXPECT_EQ(find_first_set_u8(flags.data(), n), pos);
      EXPECT_EQ(count_set_u8(flags.data(), n), 1u);
    }
  }
}

TEST(SimdKernels, ForceScalarAgreesWithVectorDispatch) {
  util::Rng rng(0xD15B);
  auto data = random_u16(rng, kMaxWidth, 9);
  std::vector<std::uint8_t> flags(kMaxWidth);
  for (auto& f : flags) f = rng.next_below(4) == 0 ? 1 : 0;
  for (std::size_t n = 0; n <= kMaxWidth; ++n) {
    for (std::uint16_t v = 0; v < 10; ++v) {
      const auto ff = find_first_eq_u16(data.data(), n, v);
      const auto fl = find_last_eq_u16(data.data(), n, v);
      set_force_scalar(true);
      EXPECT_EQ(find_first_eq_u16(data.data(), n, v), ff);
      EXPECT_EQ(find_last_eq_u16(data.data(), n, v), fl);
      set_force_scalar(false);
    }
    const auto fs = find_first_set_u8(flags.data(), n);
    const auto cnt = count_set_u8(flags.data(), n);
    set_force_scalar(true);
    EXPECT_EQ(find_first_set_u8(flags.data(), n), fs);
    EXPECT_EQ(count_set_u8(flags.data(), n), cnt);
    set_force_scalar(false);
  }
}

TEST(SimdKernels, PresenceMaskIsOrOfBits) {
  util::Rng rng(0xB100);
  for (std::size_t n = 0; n <= kMaxWidth; ++n) {
    auto data = random_u16(rng, n, 1200);
    std::uint64_t expect = 0;
    for (auto v : data) expect |= presence_bit_u16(v);
    EXPECT_EQ(presence_mask_u16(data.data(), n), expect);
  }
}

TEST(SimdKernels, PresenceMaskSupersetAndDisjointnessAreConservative) {
  // The two gating directions used by the detector:
  //  * subset of symbols  -> subset of bits (never a spurious reject of a
  //    real subsequence match),
  //  * shared symbol      -> shared bit (zero AND truly means no overlap).
  util::Rng rng(0xC0DE);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = random_u16(rng, 1 + rng.next_below(40), 1200);
    // b = a plus extra symbols: a's mask must be a subset of b's.
    auto b = a;
    const auto extra = rng.next_below(20);
    for (std::size_t i = 0; i < extra; ++i)
      b.push_back(static_cast<std::uint16_t>(rng.next_below(1200)));
    const auto ma = presence_mask_u16(a.data(), a.size());
    const auto mb = presence_mask_u16(b.data(), b.size());
    EXPECT_EQ(ma & ~mb, 0u) << "subset symbols must give subset bits";
    EXPECT_NE(ma & mb, 0u) << "shared symbols must share a bit";
  }
}

TEST(SimdKernels, PresenceMaskEmptySequence) {
  EXPECT_EQ(presence_mask_u16(nullptr, 0), 0u);
}

}  // namespace
}  // namespace gretel::simd
