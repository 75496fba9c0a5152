#include "wire/amqp_codec.h"

#include <gtest/gtest.h>

namespace gretel::wire {
namespace {

AmqpFrame sample_frame() {
  AmqpFrame f;
  f.type = AmqpFrameType::Publish;
  f.channel = 3;
  f.routing_key = "nova-compute.compute-1";
  f.method_name = "build_and_run_instance";
  f.msg_id = 0xDEADBEEFCAFEBABEull;
  f.payload = R"({"args": {"instance": "i-1"}})";
  return f;
}

TEST(AmqpCodec, RoundTrip) {
  const auto bytes = serialize(sample_frame());
  const auto parsed = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, AmqpFrameType::Publish);
  EXPECT_EQ(parsed->channel, 3);
  EXPECT_EQ(parsed->routing_key, "nova-compute.compute-1");
  EXPECT_EQ(parsed->method_name, "build_and_run_instance");
  EXPECT_EQ(parsed->msg_id, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(parsed->payload, sample_frame().payload);
}

TEST(AmqpCodec, DeliverRoundTrip) {
  auto f = sample_frame();
  f.type = AmqpFrameType::Deliver;
  const auto bytes = serialize(f);
  const auto parsed = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, AmqpFrameType::Deliver);
}

TEST(AmqpCodec, EmptyPayload) {
  auto f = sample_frame();
  f.payload.clear();
  const auto bytes = serialize(f);
  const auto parsed = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(AmqpCodec, BinaryPayloadSurvives) {
  auto f = sample_frame();
  f.payload = std::string("\x00\x01\xFF\xCE\r\n", 6);
  const auto bytes = serialize(f);
  const auto parsed = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, f.payload);
}

TEST(AmqpCodec, RejectsBadMagic) {
  auto bytes = serialize(sample_frame());
  bytes[0] = 'X';
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
}

TEST(AmqpCodec, RejectsBadFrameType) {
  auto bytes = serialize(sample_frame());
  bytes[1] = 9;
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
}

TEST(AmqpCodec, RejectsTruncation) {
  const auto bytes = serialize(sample_frame());
  // Every strict prefix must fail to parse.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        parse_amqp_frame_view(std::string_view(bytes).substr(0, len))
            .has_value())
        << "prefix of length " << len << " unexpectedly parsed";
  }
}

TEST(AmqpCodec, RejectsTrailingGarbage) {
  auto bytes = serialize(sample_frame());
  bytes += "extra";
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
}

TEST(AmqpCodec, RejectsMissingFrameEnd) {
  auto bytes = serialize(sample_frame());
  bytes.back() = 0x00;
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
}

TEST(RpcErrorPayload, RoundTripDetection) {
  const auto payload =
      make_rpc_error_payload("RemoteError", "No valid host was found");
  EXPECT_TRUE(rpc_payload_has_error(payload));
  EXPECT_NE(payload.find("RemoteError"), std::string::npos);
  EXPECT_NE(payload.find("No valid host was found"), std::string::npos);
}

TEST(RpcErrorPayload, CleanPayloadNotFlagged) {
  EXPECT_FALSE(rpc_payload_has_error(R"({"result": "ok"})"));
  EXPECT_FALSE(rpc_payload_has_error(""));
  // The marker must be the quoted oslo key, not a substring in user data.
  EXPECT_FALSE(rpc_payload_has_error(R"({"note": "no error here"})"));
}

TEST(RpcErrorPayload, FailureKeyAloneDetected) {
  EXPECT_TRUE(rpc_payload_has_error(R"({"failure": "timeout"})"));
}

TEST(RpcErrorPayload, OnePassMatchesTwoSearches) {
  const auto reference = [](std::string_view p) {
    return p.find("\"_error\"") != std::string_view::npos ||
           p.find("\"failure\"") != std::string_view::npos;
  };
  for (const auto* payload :
       {"\"", "\"\"", "\"_error", "_error\"", "\"\"_error\"", "x\"failure\"",
        "\"failur\"", "\"failure", "\"fail\"failure\"", "{\"_error\": 1}",
        "\"_errorr\"", "\"_error\"\"", "abc"}) {
    EXPECT_EQ(rpc_payload_has_error(payload), reference(payload)) << payload;
  }
  // Every string of up to 6 bytes over the markers' alphabet, quoted.
  static constexpr char kAlphabet[] = "\"_erofailu";
  std::string s;
  for (int n = 0; n < 1'000'000; ++n) {
    s.clear();
    for (int k = n; k > 0; k /= 10) s += kAlphabet[k % 10];
    s = "\"" + s + "\"";
    ASSERT_EQ(rpc_payload_has_error(s), reference(s)) << s;
  }
  // Markers, torn markers and bare quotes at every offset of payloads up
  // to 40 bytes, across the eight-byte steps of the scan.
  std::size_t hits = 0;
  for (const std::string_view mark :
       {"\"_error\"", "\"failure\"", "\"_error", "\"failure", "\"failur\"",
        "_error\"", "\"\"_error\"\"", "\"", "\"\""}) {
    for (std::size_t len = 0; len <= 40; ++len) {
      for (std::size_t at = 0; at <= len; ++at) {
        s.assign(len, 'x');
        for (std::size_t k = 0; k < len; k += 3) s[k] = '"';
        s.insert(at, mark);
        s.resize(std::max(len, mark.size()));
        const bool want = reference(s);
        ASSERT_EQ(rpc_payload_has_error(s), want) << s;
        hits += want;
      }
    }
  }
  EXPECT_GT(hits, 1000u);
}

// --- Views into the input buffer ---

// The view parse reproduces the owning frame it was serialized from, field
// for field.
TEST(AmqpCodecView, ViewMatchesOwningParse) {
  auto owned = sample_frame();
  owned.correlation_id = 0x01020304u;
  const auto bytes = serialize(owned);
  const auto view = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, owned.type);
  EXPECT_EQ(view->channel, owned.channel);
  EXPECT_EQ(view->routing_key, owned.routing_key);
  EXPECT_EQ(view->method_name, owned.method_name);
  EXPECT_EQ(view->msg_id, owned.msg_id);
  EXPECT_EQ(view->correlation_id, owned.correlation_id);
  EXPECT_EQ(view->payload, owned.payload);
}

TEST(AmqpCodecView, ViewsPointIntoInputBuffer) {
  const auto bytes = serialize(sample_frame());
  const auto view = parse_amqp_frame_view(bytes);
  ASSERT_TRUE(view.has_value());
  const auto inside = [&](std::string_view v) {
    return v.data() >= bytes.data() &&
           v.data() + v.size() <= bytes.data() + bytes.size();
  };
  EXPECT_TRUE(inside(view->routing_key));
  EXPECT_TRUE(inside(view->method_name));
  EXPECT_TRUE(inside(view->payload));
}

TEST(AmqpCodecView, RejectsSameMalformedInputs) {
  EXPECT_FALSE(parse_amqp_frame_view("").has_value());
  auto bytes = serialize(sample_frame());
  bytes[0] = 0x00;  // bad magic
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
  bytes = serialize(sample_frame());
  bytes.back() = 0x00;  // missing frame-end octet
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
  bytes = serialize(sample_frame());
  EXPECT_FALSE(
      parse_amqp_frame_view(std::string_view(bytes).substr(0, 10)));
}

TEST(AmqpCodecView, HugeDeclaredPayloadLengthRejectedWithoutWrap) {
  // A frame whose u32 payload-length field claims UINT32_MAX must be
  // rejected cleanly: the bounds check `size < payload_len + 1` wrapped to
  // zero before the 64-bit fix and walked off the buffer.
  auto bytes = serialize(sample_frame());
  const auto end = bytes.size() - 2;  // last payload byte | frame-end
  const auto len_at = end - sample_frame().payload.size() - 3;
  for (int i = 0; i < 4; ++i) bytes[len_at + i] = '\xFF';
  EXPECT_FALSE(parse_amqp_frame_view(bytes).has_value());
}

}  // namespace
}  // namespace gretel::wire
