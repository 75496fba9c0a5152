// Vectorized match/scan kernels for the analysis hot loops.
//
// The analysis-side inner loops — the Alg. 2 subsequence matcher, the
// error-flag scan over frozen context windows, and fingerprint truncation —
// are all "find the next/last element equal to X" or "find the next set
// flag" over small dense arrays (ApiId symbols are uint16, error flags are
// uint8).  This header provides those primitives as AVX2 kernels with a
// scalar reference implementation that is *the* semantic contract: every
// vector path must return bit-identical results to its `scalar::` twin
// (property-tested across widths 0..130 in tests/util/simd_test.cpp), so
// detector output is byte-identical whichever kernel family is compiled in.
//
// Kernel family selection is compile-time, and there are two families:
//   __AVX2__             — 16×u16 / 32×u8 lanes (enabled automatically by
//                          the build when the host CPU supports it).
//   otherwise            — the scalar references.  GRETEL_FORCE_SCALAR
//                          (also a CMake option) picks them on an AVX2
//                          host too.
// docs/PERFORMANCE.md ("Kernel costs") records what the AVX2 family buys
// over the scalar one, end to end.
//
// A *runtime* escape hatch (set_force_scalar) additionally lets one process
// run both families for in-process A/B determinism tests and the
// scalar-baseline microbenchmarks; it routes the public entry points to the
// scalar twins without rebuilding.  All loads are unaligned (loadu); no
// kernel reads past `data + n`.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) && !defined(GRETEL_FORCE_SCALAR)
#include <immintrin.h>

#include <bit>
#define GRETEL_SIMD_AVX2 1
#endif

namespace gretel::simd {

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

namespace detail {
inline bool g_force_scalar = false;
}  // namespace detail

// Runtime escape hatch: route every public kernel to its scalar reference.
// Single-threaded toggle (flip only while the analysis pipeline is
// quiescent); used by the determinism tests and the scalar-baseline bench.
inline void set_force_scalar(bool v) { detail::g_force_scalar = v; }

inline bool force_scalar() {
#if defined(GRETEL_FORCE_SCALAR)
  return true;
#else
  return detail::g_force_scalar;
#endif
}

// Kernel family compiled into this binary.
inline const char* compiled_kernel() {
#if defined(GRETEL_SIMD_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

// Kernel family the public entry points currently dispatch to.
inline const char* active_kernel() {
  return force_scalar() ? "scalar" : compiled_kernel();
}

// ---------------------------------------------------------------------------
// Scalar reference implementations — the semantic contract.
// ---------------------------------------------------------------------------
namespace scalar {

inline std::size_t find_first_eq_u16(const std::uint16_t* data, std::size_t n,
                                     std::uint16_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] == v) return i;
  }
  return npos;
}

inline std::size_t find_last_eq_u16(const std::uint16_t* data, std::size_t n,
                                    std::uint16_t v) {
  for (std::size_t i = n; i-- > 0;) {
    if (data[i] == v) return i;
  }
  return npos;
}

inline std::size_t find_first_set_u8(const std::uint8_t* flags,
                                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (flags[i]) return i;
  }
  return npos;
}

inline std::size_t count_set_u8(const std::uint8_t* flags, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += flags[i] ? 1 : 0;
  return count;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 implementations.  Each mirrors its scalar twin exactly; the public
// dispatchers below pick vector vs scalar.
// ---------------------------------------------------------------------------
#if defined(GRETEL_SIMD_AVX2)
namespace vec {

inline std::size_t find_first_eq_u16(const std::uint16_t* data, std::size_t n,
                                     std::uint16_t v) {
  const __m256i needle = _mm256_set1_epi16(static_cast<short>(v));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const auto mask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(chunk, needle)));
    if (mask) return i + static_cast<std::size_t>(std::countr_zero(mask)) / 2;
  }
  for (; i < n; ++i) {
    if (data[i] == v) return i;
  }
  return npos;
}

inline std::size_t find_last_eq_u16(const std::uint16_t* data, std::size_t n,
                                    std::uint16_t v) {
  const __m256i needle = _mm256_set1_epi16(static_cast<short>(v));
  std::size_t i = n;
  while (i >= 16) {
    i -= 16;
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const auto mask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(chunk, needle)));
    if (mask) {
      return i + (31 - static_cast<std::size_t>(std::countl_zero(mask))) / 2;
    }
  }
  while (i-- > 0) {
    if (data[i] == v) return i;
  }
  return npos;
}

inline std::size_t find_first_set_u8(const std::uint8_t* flags,
                                     std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + i));
    const auto mask = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, zero)));
    if (mask) return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  for (; i < n; ++i) {
    if (flags[i]) return i;
  }
  return npos;
}

inline std::size_t count_set_u8(const std::uint8_t* flags, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + i));
    const auto mask = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, zero)));
    count += static_cast<std::size_t>(std::popcount(mask));
  }
  for (; i < n; ++i) count += flags[i] ? 1 : 0;
  return count;
}

}  // namespace vec
#endif

// ---------------------------------------------------------------------------
// Public dispatchers.  Semantics (shared with the scalar:: twins):
//   find_first_eq_u16(data, n, v) — smallest i in [0, n) with data[i] == v.
//   find_last_eq_u16(data, n, v)  — largest such i.
//   find_first_set_u8(flags, n)   — smallest i in [0, n) with flags[i] != 0.
//   count_set_u8(flags, n)        — number of nonzero flags.
// All return npos when no element qualifies; n == 0 is valid.
// ---------------------------------------------------------------------------

inline std::size_t find_first_eq_u16(const std::uint16_t* data, std::size_t n,
                                     std::uint16_t v) {
#if defined(GRETEL_SIMD_AVX2)
  if (!force_scalar()) return vec::find_first_eq_u16(data, n, v);
#endif
  return scalar::find_first_eq_u16(data, n, v);
}

inline std::size_t find_last_eq_u16(const std::uint16_t* data, std::size_t n,
                                    std::uint16_t v) {
#if defined(GRETEL_SIMD_AVX2)
  if (!force_scalar()) return vec::find_last_eq_u16(data, n, v);
#endif
  return scalar::find_last_eq_u16(data, n, v);
}

inline std::size_t find_first_set_u8(const std::uint8_t* flags,
                                     std::size_t n) {
#if defined(GRETEL_SIMD_AVX2)
  if (!force_scalar()) return vec::find_first_set_u8(flags, n);
#endif
  return scalar::find_first_set_u8(flags, n);
}

inline std::size_t count_set_u8(const std::uint8_t* flags, std::size_t n) {
#if defined(GRETEL_SIMD_AVX2)
  if (!force_scalar()) return vec::count_set_u8(flags, n);
#endif
  return scalar::count_set_u8(flags, n);
}

// ---------------------------------------------------------------------------
// 64-bit symbol-presence fingerprints.  Each u16 symbol hashes to one of 64
// buckets; a sequence's fingerprint is the OR of its symbols' bucket bits.
// If (a_mask & b_mask) == 0, the two sequences share no symbol; if
// (a_mask & ~b_mask) != 0, some symbol of `a` does not occur in `b`.  Both
// tests are conservative in the useful direction (hash collisions only make
// the filter admit extra candidates, never reject a real match), so Alg. 2
// can discard non-overlapping candidates with a single AND before any O(n)
// scan.
// ---------------------------------------------------------------------------

inline std::uint64_t presence_bit_u16(std::uint16_t v) {
  // Multiplicative hash into 64 buckets (Knuth's 2654435761).
  return 1ull << ((static_cast<std::uint32_t>(v) * 2654435761u) >> 26);
}

inline std::uint64_t presence_mask_u16(const std::uint16_t* data,
                                       std::size_t n) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) mask |= presence_bit_u16(data[i]);
  return mask;
}

}  // namespace gretel::simd
