#include "net/capture.h"

#include <gtest/gtest.h>

#include "wire/amqp_codec.h"
#include "wire/http_codec.h"

namespace gretel::net {
namespace {

using wire::ApiCatalog;
using wire::ApiKind;
using wire::HttpMethod;
using wire::ServiceKind;

TEST(NormalizeUri, ReplacesUuidSegments) {
  EXPECT_EQ(normalize_uri(
                "/v2/images/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9/file"),
            "/v2/images/<ID>/file");
}

TEST(NormalizeUri, ReplacesNumericSegments) {
  EXPECT_EQ(normalize_uri("/v2.1/servers/12345"), "/v2.1/servers/<ID>");
}

TEST(NormalizeUri, PreservesJsonExtension) {
  EXPECT_EQ(normalize_uri("/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5.json"),
            "/v2.0/ports/<ID>.json");
}

TEST(NormalizeUri, DropsQueryString) {
  EXPECT_EQ(normalize_uri("/v2.0/ports.json?tenant_id=77"),
            "/v2.0/ports.json");
}

TEST(NormalizeUri, KeepsResourceNames) {
  EXPECT_EQ(normalize_uri("/v2.0/security-groups.json"),
            "/v2.0/security-groups.json");
  EXPECT_EQ(normalize_uri("/v2.1/os-hypervisors"), "/v2.1/os-hypervisors");
}

TEST(NormalizeUri, VersionSegmentsNotIds) {
  // "v2.1" has a dot-extension-looking tail but "v2" is not id-like enough
  // to rewrite... verify version prefixes survive.
  EXPECT_EQ(normalize_uri("/v2.1/flavors"), "/v2.1/flavors");
  EXPECT_EQ(normalize_uri("/v3/auth/tokens"), "/v3/auth/tokens");
}

TEST(NormalizeUri, EmptySegmentsPreserved) {
  EXPECT_EQ(normalize_uri("//v2.0/ports"), "//v2.0/ports");
  EXPECT_EQ(normalize_uri("/v2.0//ports"), "/v2.0//ports");
}

TEST(NormalizeUri, TrailingSlashPreserved) {
  EXPECT_EQ(normalize_uri("/v2.1/servers/"), "/v2.1/servers/");
  EXPECT_EQ(normalize_uri("/v2.1/servers/12345/"), "/v2.1/servers/<ID>/");
}

TEST(NormalizeUri, QueryOnlyTarget) {
  EXPECT_EQ(normalize_uri("?tenant_id=77"), "");
  EXPECT_EQ(normalize_uri("/?tenant_id=77"), "/");
}

TEST(NormalizeUri, XmlExtensionOnUuidSegment) {
  EXPECT_EQ(normalize_uri("/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5.xml"),
            "/v2.0/ports/<ID>.xml");
}

TEST(NormalizeUri, PureNumericShortSegmentsAreIds) {
  EXPECT_EQ(normalize_uri("/v2/servers/7"), "/v2/servers/<ID>");
  EXPECT_EQ(normalize_uri("/v2/servers/7/action"), "/v2/servers/<ID>/action");
}

TEST(NormalizeUri, LeadingDotSegmentKept) {
  // ".json" alone has no stem to rewrite (dot at position 0 is no
  // extension split).
  EXPECT_EQ(normalize_uri("/v2.0/.json"), "/v2.0/.json");
}

TEST(ParseCorrelationId, AcceptsPlainReqIds) {
  EXPECT_EQ(parse_correlation_id(std::string_view("req-1")), 1u);
  EXPECT_EQ(parse_correlation_id(std::string_view("req-4294967295")),
            4294967295u);
}

TEST(ParseCorrelationId, RejectsOverflowInsteadOfWrapping) {
  // 2^32 would wrap to 0..., 2^32+6 to 6 — either silently aliases another
  // operation during snapshot reduction.
  EXPECT_EQ(parse_correlation_id(std::string_view("req-4294967296")), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("req-4294967302")), 0u);
  EXPECT_EQ(parse_correlation_id(
                std::string_view("req-99999999999999999999999999")),
            0u);
}

TEST(ParseCorrelationId, RejectsMalformedValues) {
  EXPECT_EQ(parse_correlation_id(std::nullopt), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("")), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("req-")), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("req-12x")), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("REQ-12")), 0u);
  EXPECT_EQ(parse_correlation_id(std::string_view("12")), 0u);
}

class CaptureTapTest : public ::testing::Test {
 protected:
  CaptureTapTest()
      : rest_api_(catalog_.add_rest(ServiceKind::Neutron, HttpMethod::Post,
                                    "/v2.0/ports.json")),
        rest_id_api_(catalog_.add_rest(ServiceKind::Glance, HttpMethod::Get,
                                       "/v2/images/<ID>")),
        rpc_api_(catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute",
                                  "build_and_run_instance")),
        tap_(&catalog_, {{9696, ServiceKind::Neutron},
                         {9292, ServiceKind::Glance}}) {}

  WireRecord make_rest_record(std::string bytes, std::uint16_t dst_port,
                              std::uint32_t conn) {
    WireRecord r;
    r.ts = util::SimTime(1000);
    r.src_node = wire::NodeId(0);
    r.dst_node = wire::NodeId(1);
    r.dst.port = dst_port;
    r.conn_id = conn;
    r.bytes = std::move(bytes);
    return r;
  }

  ApiCatalog catalog_;
  wire::ApiId rest_api_;
  wire::ApiId rest_id_api_;
  wire::ApiId rpc_api_;
  CaptureTap tap_;
};

TEST_F(CaptureTapTest, DecodesRestRequest) {
  wire::HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json";
  const auto ev =
      tap_.decode(make_rest_record(wire::serialize(req), 9696, 7));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->api, rest_api_);
  EXPECT_EQ(ev->kind, ApiKind::Rest);
  EXPECT_TRUE(ev->is_request());
  EXPECT_EQ(ev->conn_id, 7u);
  EXPECT_GT(ev->wire_bytes, 0u);
}

TEST_F(CaptureTapTest, DecodesConcreteUriViaNormalization) {
  wire::HttpRequest req;
  req.method = HttpMethod::Get;
  req.target = "/v2/images/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9";
  const auto ev =
      tap_.decode(make_rest_record(wire::serialize(req), 9292, 8));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->api, rest_id_api_);
}

TEST_F(CaptureTapTest, ResponseAttributedViaConnection) {
  wire::HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json";
  ASSERT_TRUE(
      tap_.decode(make_rest_record(wire::serialize(req), 9696, 42)));

  wire::HttpResponse resp;
  resp.status = 409;
  const auto ev =
      tap_.decode(make_rest_record(wire::serialize(resp), 33000, 42));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->api, rest_api_);
  EXPECT_TRUE(ev->is_response());
  EXPECT_TRUE(ev->is_error());
  EXPECT_EQ(ev->status, 409);
}

TEST_F(CaptureTapTest, ResponseWithoutRequestDropped) {
  wire::HttpResponse resp;
  resp.status = 200;
  const auto ev =
      tap_.decode(make_rest_record(wire::serialize(resp), 33000, 999));
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(tap_.stats().unknown_api, 1u);
}

TEST_F(CaptureTapTest, UnknownPortDropped) {
  wire::HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json";
  EXPECT_FALSE(
      tap_.decode(make_rest_record(wire::serialize(req), 1234, 1)));
  EXPECT_EQ(tap_.stats().unknown_api, 1u);
}

TEST_F(CaptureTapTest, UnknownApiDropped) {
  wire::HttpRequest req;
  req.method = HttpMethod::Delete;
  req.target = "/v2.0/ports.json";  // DELETE not registered
  EXPECT_FALSE(
      tap_.decode(make_rest_record(wire::serialize(req), 9696, 1)));
}

TEST_F(CaptureTapTest, ResolvesApisAddedAfterTheTapWasBuilt) {
  wire::HttpRequest req;
  req.method = HttpMethod::Delete;
  req.target = "/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9.json";
  const auto bytes = wire::serialize(req);
  EXPECT_FALSE(tap_.decode(make_rest_record(bytes, 9696, 3)));
  EXPECT_EQ(tap_.stats().unknown_api, 1u);

  const auto api = catalog_.add_rest(ServiceKind::Neutron, HttpMethod::Delete,
                                     "/v2.0/ports/<ID>.json");
  const auto ev = tap_.decode(make_rest_record(bytes, 9696, 4));
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->api, api);
}

TEST_F(CaptureTapTest, ReadsRequestIdFromRequestAndResponse) {
  wire::HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json?fields=id";
  req.headers.set("x-openstack-request-id", "req-17");
  const auto req_ev =
      tap_.decode(make_rest_record(wire::serialize(req), 9696, 11));
  ASSERT_TRUE(req_ev.has_value());
  EXPECT_EQ(req_ev->api, rest_api_);
  EXPECT_EQ(req_ev->correlation_id, 17u);

  wire::HttpResponse resp;
  resp.status = 500;
  resp.headers.set("X-Openstack-Request-Id", "req-18");
  const auto resp_ev =
      tap_.decode(make_rest_record(wire::serialize(resp), 33000, 11));
  ASSERT_TRUE(resp_ev.has_value());
  EXPECT_EQ(resp_ev->correlation_id, 18u);
  EXPECT_EQ(resp_ev->status, 500);
}

TEST_F(CaptureTapTest, GarbageCountsDecodeFailure) {
  EXPECT_FALSE(tap_.decode(make_rest_record("not http", 9696, 1)));
  EXPECT_EQ(tap_.stats().decode_failures, 1u);
}

TEST_F(CaptureTapTest, DecodesAmqpPublishAndDeliver) {
  wire::AmqpFrame frame;
  frame.type = wire::AmqpFrameType::Publish;
  frame.routing_key = "nova-compute.compute-2";
  frame.method_name = "build_and_run_instance";
  frame.msg_id = 77;

  auto rec = make_rest_record(wire::serialize(frame), 5672, 0);
  rec.is_amqp = true;
  const auto req_ev = tap_.decode(rec);
  ASSERT_TRUE(req_ev.has_value());
  EXPECT_EQ(req_ev->api, rpc_api_);
  EXPECT_EQ(req_ev->kind, ApiKind::Rpc);
  EXPECT_TRUE(req_ev->is_request());
  EXPECT_EQ(req_ev->msg_id, 77u);

  frame.type = wire::AmqpFrameType::Deliver;
  frame.payload = R"({"result": "ok"})";
  rec.bytes = wire::serialize(frame);
  const auto resp_ev = tap_.decode(rec);
  ASSERT_TRUE(resp_ev.has_value());
  EXPECT_TRUE(resp_ev->is_response());
  EXPECT_EQ(resp_ev->status, wire::kStatusOk);
  EXPECT_FALSE(resp_ev->is_error());
}

TEST_F(CaptureTapTest, AmqpErrorPayloadFlagged) {
  wire::AmqpFrame frame;
  frame.type = wire::AmqpFrameType::Deliver;
  frame.routing_key = "nova-compute.compute-2";
  frame.method_name = "build_and_run_instance";
  frame.msg_id = 78;
  frame.payload = wire::make_rpc_error_payload("RemoteError", "boom");

  auto rec = make_rest_record(wire::serialize(frame), 5672, 0);
  rec.is_amqp = true;
  const auto ev = tap_.decode(rec);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->is_error());
  EXPECT_EQ(ev->status, 500);
  // The error text stays in the captured bytes; the Event is a flat row.
  EXPECT_NE(rec.bytes.find("boom"), std::string::npos);
}

TEST_F(CaptureTapTest, GroundTruthLabelsCopied) {
  wire::HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json";
  auto rec = make_rest_record(wire::serialize(req), 9696, 5);
  rec.truth_instance = wire::OpInstanceId(12);
  rec.truth_template = wire::OpTemplateId(3);
  rec.truth_noise = true;
  const auto ev = tap_.decode(rec);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->truth_instance, wire::OpInstanceId(12));
  EXPECT_EQ(ev->truth_template, wire::OpTemplateId(3));
  EXPECT_TRUE(ev->truth_noise);
}

}  // namespace
}  // namespace gretel::net
