#include "wire/amqp_codec.h"

#include "util/swar.h"

namespace gretel::wire {

namespace {

constexpr char kMagic = static_cast<char>(0xA9);
constexpr char kFrameEnd = static_cast<char>(0xCE);

void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>((v >> 8) & 0xFF);
  out += static_cast<char>(v & 0xFF);
}

void put_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>((v >> 24) & 0xFF);
  out += static_cast<char>((v >> 16) & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
  out += static_cast<char>(v & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
}

bool get_u8(std::string_view& in, std::uint8_t& v) {
  if (in.empty()) return false;
  v = static_cast<std::uint8_t>(in.front());
  in.remove_prefix(1);
  return true;
}

bool get_u16(std::string_view& in, std::uint16_t& v) {
  if (in.size() < 2) return false;
  v = static_cast<std::uint16_t>(
      (static_cast<std::uint8_t>(in[0]) << 8) |
      static_cast<std::uint8_t>(in[1]));
  in.remove_prefix(2);
  return true;
}

bool get_u32(std::string_view& in, std::uint32_t& v) {
  if (in.size() < 4) return false;
  v = (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[3]));
  in.remove_prefix(4);
  return true;
}

bool get_u64(std::string_view& in, std::uint64_t& v) {
  std::uint32_t hi = 0;
  std::uint32_t lo = 0;
  if (!get_u32(in, hi) || !get_u32(in, lo)) return false;
  v = (static_cast<std::uint64_t>(hi) << 32) | lo;
  return true;
}

bool get_short_string(std::string_view& in, std::string_view& out) {
  std::uint8_t len = 0;
  if (!get_u8(in, len)) return false;
  if (in.size() < len) return false;
  out = in.substr(0, len);
  in.remove_prefix(len);
  return true;
}

}  // namespace

std::string serialize(const AmqpFrame& frame) {
  std::string out;
  out.reserve(32 + frame.routing_key.size() + frame.method_name.size() +
              frame.payload.size());
  out += kMagic;
  out += static_cast<char>(frame.type);
  put_u16(out, frame.channel);
  put_u64(out, frame.msg_id);
  put_u32(out, frame.correlation_id);
  out += static_cast<char>(frame.routing_key.size() & 0xFF);
  out += frame.routing_key.substr(0, 255);
  out += static_cast<char>(frame.method_name.size() & 0xFF);
  out += frame.method_name.substr(0, 255);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  out += kFrameEnd;
  return out;
}

std::optional<AmqpFrameView> parse_amqp_frame_view(std::string_view bytes) {
  std::string_view in = bytes;
  std::uint8_t magic = 0;
  if (!get_u8(in, magic) || magic != static_cast<std::uint8_t>(kMagic))
    return std::nullopt;

  AmqpFrameView frame;
  std::uint8_t type = 0;
  if (!get_u8(in, type)) return std::nullopt;
  if (type != static_cast<std::uint8_t>(AmqpFrameType::Publish) &&
      type != static_cast<std::uint8_t>(AmqpFrameType::Deliver))
    return std::nullopt;
  frame.type = static_cast<AmqpFrameType>(type);

  if (!get_u16(in, frame.channel)) return std::nullopt;
  if (!get_u64(in, frame.msg_id)) return std::nullopt;
  if (!get_u32(in, frame.correlation_id)) return std::nullopt;
  if (!get_short_string(in, frame.routing_key)) return std::nullopt;
  if (!get_short_string(in, frame.method_name)) return std::nullopt;

  std::uint32_t payload_len = 0;
  if (!get_u32(in, payload_len)) return std::nullopt;
  // 64-bit compare: payload_len + 1 would wrap to 0 at UINT32_MAX.
  if (in.size() < static_cast<std::uint64_t>(payload_len) + 1)
    return std::nullopt;  // payload + end
  frame.payload = in.substr(0, payload_len);
  in.remove_prefix(payload_len);

  std::uint8_t end = 0;
  if (!get_u8(in, end) || end != static_cast<std::uint8_t>(kFrameEnd))
    return std::nullopt;
  if (!in.empty()) return std::nullopt;  // trailing garbage
  return frame;
}

std::string make_rpc_error_payload(std::string_view exception_class,
                                   std::string_view message) {
  std::string out;
  out.reserve(64 + exception_class.size() + message.size());
  out += R"({"_error": {"kind": ")";
  out += exception_class;
  out += R"(", "failure": ")";
  out += message;
  out += R"("}})";
  return out;
}

bool rpc_payload_has_error(std::string_view payload) {
  // Both markers open with a quote.  One pass: flag the quotes eight bytes
  // at a time and test the two keys only there.
  constexpr std::string_view kError = "\"_error\"";
  constexpr std::string_view kFailure = "\"failure\"";
  const auto marker_at = [payload](std::size_t q) {
    const auto tail = payload.substr(q);
    return tail.starts_with(kError) || tail.starts_with(kFailure);
  };
  std::size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    for (auto quotes = util::swar::match(util::swar::load(payload.data() + i),
                                         '"');
         quotes; quotes = util::swar::drop_first(quotes)) {
      if (marker_at(i + util::swar::first(quotes))) return true;
    }
  }
  for (; i < payload.size(); ++i) {
    if (payload[i] == '"' && marker_at(i)) return true;
  }
  return false;
}

}  // namespace gretel::wire
