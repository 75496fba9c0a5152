// FNV-1a 64 — the one non-cryptographic string hash behind every stable
// identity in the system: campaign report fingerprints, the fingerprint
// DB's catalog hash, the API catalog's lookup keys and the probe layer's
// stateless draws.  The offset basis and prime are part of those on-disk
// and reproducibility contracts, so they live here once.
//
// The incremental form (fnv1a64_step per byte, or fnv1a64 with a running
// hash) lets callers fold separators and enum bytes between strings.
#pragma once

#include <cstdint>
#include <string_view>

namespace gretel::util {

inline constexpr std::uint64_t kFnv1a64Offset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001B3ull;

constexpr std::uint64_t fnv1a64_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnv1a64Prime;
}

constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = kFnv1a64Offset) {
  for (char c : bytes) h = fnv1a64_step(h, static_cast<std::uint8_t>(c));
  return h;
}

}  // namespace gretel::util
