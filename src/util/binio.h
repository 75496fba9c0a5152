// Big-endian byte (de)serialization helpers shared by the on-disk formats:
// the fingerprint database (gretel/db_io.cpp), the checkpoint container and
// the report journal (src/persist/).  One vocabulary, so every format
// agrees on integer width and byte order and the decoders compose: every
// get_* consumes from the front of a string_view and returns false on
// truncation, which makes "reject torn input" the default behavior.
//
// Doubles travel as the IEEE-754 bit pattern in a u64 — bit-exact
// round-trips, which the checkpoint format relies on for its "restored
// detector state is the saved detector state" contract.
//
// Multi-byte words move as one byte-swapped word through memcpy (any
// alignment), one append per put: the checkpoint encoder writes a few
// hundred KB of them per snapshot.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace gretel::util {

namespace detail {

// Byte-swaps `v` to big-endian on a little-endian host (and back).  C++20
// has no std::byteswap, so the GCC/Clang builtins stand in.
template <class U>
constexpr U to_big_endian(U v) {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(U) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(U) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

// One append of the word's big-endian bytes.
template <class U>
inline void put_be(std::string& out, U v) {
  char bytes[sizeof(U)];
  const U be = to_big_endian(v);
  std::memcpy(bytes, &be, sizeof(U));
  out.append(bytes, sizeof(U));
}

// One load of a big-endian word from the front of `in` (any alignment).
template <class U>
inline bool get_be(std::string_view& in, U& v) {
  if (in.size() < sizeof(U)) return false;
  U be;
  std::memcpy(&be, in.data(), sizeof(U));
  v = to_big_endian(be);
  in.remove_prefix(sizeof(U));
  return true;
}

}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) {
  out += static_cast<char>(v);
}
inline void put_u16(std::string& out, std::uint16_t v) {
  detail::put_be(out, v);
}
inline void put_u32(std::string& out, std::uint32_t v) {
  detail::put_be(out, v);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  detail::put_be(out, v);
}
inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
// Overwrites the four bytes at `at` (a slot reserved earlier) with `v`.
inline void patch_u32(std::string& out, std::size_t at, std::uint32_t v) {
  const std::uint32_t be = detail::to_big_endian(v);
  std::memcpy(out.data() + at, &be, sizeof be);
}
// Length-prefixed byte string (u32 length).
inline void put_bytes(std::string& out, std::string_view bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out += bytes;
}

inline bool get_u8(std::string_view& in, std::uint8_t& v) {
  if (in.empty()) return false;
  v = static_cast<std::uint8_t>(in[0]);
  in.remove_prefix(1);
  return true;
}
inline bool get_u16(std::string_view& in, std::uint16_t& v) {
  return detail::get_be(in, v);
}
inline bool get_u32(std::string_view& in, std::uint32_t& v) {
  return detail::get_be(in, v);
}
inline bool get_u64(std::string_view& in, std::uint64_t& v) {
  return detail::get_be(in, v);
}
inline bool get_i64(std::string_view& in, std::int64_t& v) {
  std::uint64_t u = 0;
  if (!get_u64(in, u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}
inline bool get_f64(std::string_view& in, double& v) {
  std::uint64_t u = 0;
  if (!get_u64(in, u)) return false;
  v = std::bit_cast<double>(u);
  return true;
}
inline bool get_bytes(std::string_view& in, std::string_view& bytes) {
  std::uint32_t len = 0;
  if (!get_u32(in, len) || in.size() < len) return false;
  bytes = in.substr(0, len);
  in.remove_prefix(len);
  return true;
}

}  // namespace gretel::util
