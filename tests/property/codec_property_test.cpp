// Robustness properties of every parser in the wire path: random bytes must
// never crash or be misinterpreted, and round-trips must be lossless for
// arbitrary payload contents.
#include <gtest/gtest.h>

#include "gretel/db_io.h"
#include "net/capture.h"
#include "net/capture_file.h"
#include "util/rng.h"
#include "wire/amqp_codec.h"
#include "wire/http_codec.h"

namespace gretel {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = rng.next_below(max_len);
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.next_below(256));
  }
  return out;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, ParsersNeverCrashOnGarbage) {
  util::Rng rng(GetParam());
  util::Arena arena;
  for (int trial = 0; trial < 200; ++trial) {
    const auto bytes = random_bytes(rng, 512);
    // Any result is acceptable; the property is "no crash, no UB".
    arena.reset();
    (void)wire::parse_http_request(bytes, arena);
    (void)wire::parse_http_response(bytes, arena);
    (void)wire::parse_amqp_frame_view(bytes);
    (void)net::decode_capture(bytes);
  }
  SUCCEED();
}

TEST_P(CodecFuzz, MutatedValidFramesNeverCrash) {
  util::Rng rng(GetParam() * 31);
  wire::AmqpFrame frame;
  frame.routing_key = "nova-compute.compute-1";
  frame.method_name = "build_and_run_instance";
  frame.msg_id = 7;
  frame.payload = R"({"x": 1})";
  const auto valid = wire::serialize(frame);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = valid;
    const auto pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(rng.next_below(256));
    (void)wire::parse_amqp_frame_view(mutated);
  }
  SUCCEED();
}

TEST_P(CodecFuzz, AmqpRoundTripArbitraryPayload) {
  util::Rng rng(GetParam() * 97);
  for (int trial = 0; trial < 50; ++trial) {
    wire::AmqpFrame frame;
    frame.type = rng.chance(0.5) ? wire::AmqpFrameType::Publish
                                 : wire::AmqpFrameType::Deliver;
    frame.channel = static_cast<std::uint16_t>(rng.next_u64());
    frame.msg_id = rng.next_u64();
    frame.correlation_id = static_cast<std::uint32_t>(rng.next_u64());
    frame.routing_key = random_bytes(rng, 40);
    frame.method_name = random_bytes(rng, 40);
    frame.payload = random_bytes(rng, 300);
    const auto bytes = wire::serialize(frame);
    const auto parsed = wire::parse_amqp_frame_view(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, frame.type);
    EXPECT_EQ(parsed->channel, frame.channel);
    EXPECT_EQ(parsed->msg_id, frame.msg_id);
    EXPECT_EQ(parsed->correlation_id, frame.correlation_id);
    EXPECT_EQ(parsed->routing_key, frame.routing_key);
    EXPECT_EQ(parsed->method_name, frame.method_name);
    EXPECT_EQ(parsed->payload, frame.payload);
  }
}

TEST_P(CodecFuzz, CaptureRoundTripArbitraryBytes) {
  util::Rng rng(GetParam() * 193);
  std::vector<net::WireRecord> records;
  for (int i = 0; i < 10; ++i) {
    net::WireRecord r;
    r.ts = util::SimTime(static_cast<std::int64_t>(rng.next_u64() >> 2));
    r.conn_id = static_cast<std::uint32_t>(rng.next_u64());
    r.is_amqp = rng.chance(0.5);
    r.bytes = random_bytes(rng, 400);
    for (std::size_t k = 0; k < rng.next_below(5); ++k) {
      r.identifiers.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
    records.push_back(std::move(r));
  }
  const auto decoded = net::decode_capture(net::encode_capture(records));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*decoded)[i].bytes, records[i].bytes);
    EXPECT_EQ((*decoded)[i].identifiers, records[i].identifiers);
  }
}

TEST_P(CodecFuzz, NormalizeUriIdempotent) {
  util::Rng rng(GetParam() * 389);
  static constexpr char kChars[] =
      "abcdef0123456789-./<>?=_";
  for (int trial = 0; trial < 200; ++trial) {
    std::string path = "/";
    const auto len = rng.next_below(60);
    for (std::size_t i = 0; i < len; ++i) {
      path += kChars[rng.next_below(sizeof kChars - 1)];
    }
    const auto once = net::normalize_uri(path);
    EXPECT_EQ(net::normalize_uri(once), once) << path;
  }
}

TEST_P(CodecFuzz, DbDecodeGarbageNeverCrashes) {
  wire::ApiCatalog catalog;
  catalog.add_rest(wire::ServiceKind::Nova, wire::HttpMethod::Get, "/a");
  util::Rng rng(GetParam() * 577);
  for (int trial = 0; trial < 200; ++trial) {
    (void)core::decode_fingerprint_db(random_bytes(rng, 256), catalog);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CodecFuzz,
    ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace gretel
