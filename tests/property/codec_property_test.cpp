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

// The tap's header scans accept, reject and read exactly what the parsers
// do, on random bytes and on valid messages with bytes flipped, inserted
// (CR, LF, colon, space) or cut.
TEST_P(CodecFuzz, HeaderScanMatchesParsers) {
  util::Rng rng(GetParam() * 613);
  wire::HttpRequest req;
  req.method = wire::HttpMethod::Put;
  req.target = "/v2/images/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9/file?x=1";
  req.headers.set("Host", "glance");
  req.headers.set("content-length", "11");
  req.headers.set("X-Openstack-Request-Id", "req-31");
  req.body = R"({"a": "b"})";
  wire::HttpResponse resp;
  resp.status = 409;
  resp.headers.set("x-openstack-request-id", "req-32");
  resp.body = R"({"conflict": 1})";
  const std::string valid[] = {wire::serialize(req), wire::serialize(resp)};
  static constexpr char kInsert[] = "\r\n: \r";

  util::Arena arena;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes =
        trial % 10 == 0 ? random_bytes(rng, 128) : valid[trial % 2];
    for (std::size_t m = rng.next_below(3); m > 0 && !bytes.empty(); --m) {
      const auto pos = rng.next_below(bytes.size());
      switch (rng.next_below(3)) {
        case 0:
          bytes[pos] = static_cast<char>(rng.next_below(256));
          break;
        case 1:
          bytes.insert(pos, 1, kInsert[rng.next_below(sizeof kInsert - 1)]);
          break;
        default:
          bytes.resize(pos);
      }
    }
    arena.reset();
    const auto preq = wire::parse_http_request(bytes, arena);
    const auto sreq = wire::scan_http_request(bytes);
    ASSERT_EQ(sreq.has_value(), preq.has_value()) << bytes;
    if (preq) {
      EXPECT_EQ(sreq->method, preq->method);
      EXPECT_EQ(sreq->target, preq->target);
      EXPECT_EQ(sreq->request_id,
                preq->headers.get("X-Openstack-Request-Id"));
    }
    const auto presp = wire::parse_http_response(bytes, arena);
    const auto sresp = wire::scan_http_response(bytes);
    ASSERT_EQ(sresp.has_value(), presp.has_value()) << bytes;
    if (presp) {
      EXPECT_EQ(sresp->status, presp->status);
      EXPECT_EQ(sresp->request_id,
                presp->headers.get("X-Openstack-Request-Id"));
    }
    accepted += preq.has_value() + presp.has_value();
  }
  EXPECT_GT(accepted, 200u);  // the mutations leave many messages valid
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
