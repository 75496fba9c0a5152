#include "wire/http_codec.h"

#include <gtest/gtest.h>

#include "wire/message.h"  // is_error_status

namespace gretel::wire {
namespace {

HttpRequest sample_request() {
  HttpRequest req;
  req.method = HttpMethod::Post;
  req.target = "/v2.0/ports.json";
  req.headers.set("Host", "neutron");
  req.headers.set("X-Service", "nova");
  req.body = R"({"port": {"network_id": "abc"}})";
  return req;
}

TEST(HttpCodec, RequestRoundTrip) {
  const auto bytes = serialize(sample_request());
  util::Arena arena;
  const auto parsed = parse_http_request(bytes, arena);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, HttpMethod::Post);
  EXPECT_EQ(parsed->target, "/v2.0/ports.json");
  EXPECT_EQ(parsed->headers.get("Host"), "neutron");
  EXPECT_EQ(parsed->headers.get("X-Service"), "nova");
  EXPECT_EQ(parsed->body, R"({"port": {"network_id": "abc"}})");
}

TEST(HttpCodec, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 413;
  resp.body = R"({"error": "Request Entity Too Large"})";
  const auto bytes = serialize(resp);
  util::Arena arena;
  const auto parsed = parse_http_response(bytes, arena);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 413);
  EXPECT_EQ(parsed->reason, "Request Entity Too Large");
  EXPECT_EQ(parsed->body, resp.body);
}

TEST(HttpCodec, SerializeAddsContentLength) {
  const auto bytes = serialize(sample_request());
  EXPECT_NE(bytes.find("Content-Length: 31\r\n"), std::string::npos);
}

TEST(HttpCodec, HeaderLookupCaseInsensitive) {
  const auto bytes = serialize(sample_request());
  util::Arena arena;
  const auto parsed = parse_http_request(bytes, arena);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->headers.get("host"), "neutron");
  EXPECT_EQ(parsed->headers.get("X-SERVICE"), "nova");
  EXPECT_FALSE(parsed->headers.get("X-Missing").has_value());
}

TEST(HttpCodec, EmptyBodyRoundTrip) {
  HttpRequest req;
  req.method = HttpMethod::Get;
  req.target = "/v2.1/servers";
  const auto bytes = serialize(req);
  util::Arena arena;
  const auto parsed = parse_http_request(bytes, arena);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->body.empty());
}

TEST(HttpCodec, RejectsTruncatedBody) {
  auto bytes = serialize(sample_request());
  bytes.resize(bytes.size() - 5);
  util::Arena arena;
  EXPECT_FALSE(parse_http_request(bytes, arena).has_value());
}

TEST(HttpCodec, RejectsMissingHeaderTerminator) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request("GET /x HTTP/1.1\r\nHost: a\r\n", arena)
                   .has_value());
}

TEST(HttpCodec, RejectsBadMethod) {
  util::Arena arena;
  EXPECT_FALSE(
      parse_http_request("FETCH /x HTTP/1.1\r\n\r\n", arena).has_value());
}

TEST(HttpCodec, RejectsBadVersion) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request("GET /x HTTP/2\r\n\r\n", arena).has_value());
}

TEST(HttpCodec, RejectsEmptyTarget) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request("GET  HTTP/1.1\r\n\r\n", arena).has_value());
}

TEST(HttpCodec, RejectsMalformedHeaderLine) {
  util::Arena arena;
  EXPECT_FALSE(
      parse_http_request("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", arena)
          .has_value());
}

TEST(HttpCodec, RejectsBadContentLength) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request(
                   "GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n", arena)
                   .has_value());
}

TEST(HttpCodec, RejectsGarbage) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request("", arena).has_value());
  EXPECT_FALSE(parse_http_request("\r\n", arena).has_value());
  EXPECT_FALSE(parse_http_request("random bytes", arena).has_value());
  EXPECT_FALSE(parse_http_response("random bytes", arena).has_value());
}

TEST(HttpCodec, ResponseRejectsBadStatus) {
  util::Arena arena;
  EXPECT_FALSE(
      parse_http_response("HTTP/1.1 99 Tiny\r\n\r\n", arena).has_value());
  EXPECT_FALSE(
      parse_http_response("HTTP/1.1 700 Big\r\n\r\n", arena).has_value());
  EXPECT_FALSE(
      parse_http_response("HTTP/1.1 abc X\r\n\r\n", arena).has_value());
}

TEST(HttpCodec, ResponseDefaultReasonFromStatus) {
  HttpResponse resp;
  resp.status = 404;
  const auto bytes = serialize(resp);
  EXPECT_NE(bytes.find("404 Not Found"), std::string::npos);
}

TEST(ReasonPhrase, KnownAndUnknown) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(401), "Unauthorized");
  EXPECT_EQ(reason_phrase(413), "Request Entity Too Large");
  EXPECT_EQ(reason_phrase(299), "Unknown");
}

// Property sweep: round-trip holds for every status the simulator emits.
class HttpStatusRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HttpStatusRoundTrip, SurvivesSerialization) {
  HttpResponse resp;
  resp.status = static_cast<std::uint16_t>(GetParam());
  resp.body = "x";
  const auto bytes = serialize(resp);
  util::Arena arena;
  const auto parsed = parse_http_response(bytes, arena);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, GetParam());
  EXPECT_EQ(is_error_status(parsed->status), GetParam() >= 400);
}

INSTANTIATE_TEST_SUITE_P(Statuses, HttpStatusRoundTrip,
                         ::testing::Values(200, 201, 202, 204, 400, 401, 403,
                                           404, 409, 413, 500, 503, 504));

// --- Views into the input buffer ---

bool inside(std::string_view view, std::string_view buffer) {
  if (view.empty()) return true;
  return view.data() >= buffer.data() &&
         view.data() + view.size() <= buffer.data() + buffer.size();
}

// The view parse reproduces the owning struct it was serialized from, field
// for field and in order; serialize() appends the Content-Length header.
TEST(HttpCodecView, RequestViewMatchesOwningParse) {
  const auto owned = sample_request();
  const auto bytes = serialize(owned);
  util::Arena arena;
  const auto view = parse_http_request(bytes, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->method, owned.method);
  EXPECT_EQ(view->target, owned.target);
  EXPECT_EQ(view->body, owned.body);
  ASSERT_EQ(view->headers.fields.size(), owned.headers.fields.size() + 1);
  for (std::size_t i = 0; i < owned.headers.fields.size(); ++i) {
    EXPECT_EQ(view->headers.fields[i].name, owned.headers.fields[i].first);
    EXPECT_EQ(view->headers.fields[i].value, owned.headers.fields[i].second);
  }
  EXPECT_EQ(view->headers.fields.back().name, "Content-Length");
  EXPECT_EQ(view->headers.fields.back().value,
            std::to_string(owned.body.size()));
}

TEST(HttpCodecView, ViewsPointIntoInputBuffer) {
  const auto bytes = serialize(sample_request());
  util::Arena arena;
  const auto view = parse_http_request(bytes, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(inside(view->target, bytes));
  EXPECT_TRUE(inside(view->body, bytes));
  for (const auto& h : view->headers.fields) {
    EXPECT_TRUE(inside(h.name, bytes));
    EXPECT_TRUE(inside(h.value, bytes));
  }
}

TEST(HttpCodecView, ResponseViewMatchesOwningParse) {
  HttpResponse resp;
  resp.status = 503;
  resp.body = R"({"error": "Service Unavailable"})";
  const auto bytes = serialize(resp);
  util::Arena arena;
  const auto view = parse_http_response(bytes, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->status, 503);
  EXPECT_EQ(view->reason, "Service Unavailable");
  EXPECT_EQ(view->body, resp.body);
  EXPECT_EQ(view->headers.get("content-length"),
            std::to_string(resp.body.size()));
}

TEST(HttpCodecView, RejectsSameMalformedInputs) {
  util::Arena arena;
  EXPECT_FALSE(parse_http_request("", arena).has_value());
  EXPECT_FALSE(parse_http_request("BOGUS / HTTP/1.1\r\n\r\n", arena));
  EXPECT_FALSE(parse_http_request("GET /x HTTP/1.1\r\nNoColon\r\n\r\n", arena));
  EXPECT_FALSE(
      parse_http_request("GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
                         arena));
  EXPECT_FALSE(parse_http_response("HTTP/1.1 99 Bad\r\n\r\n", arena));
}

TEST(HttpCodecView, ManyHeadersStayDistinctAcrossArenaGrowth) {
  HttpRequest req;
  req.method = HttpMethod::Get;
  req.target = "/v2.1/servers";
  const auto name_of = [](int i) {
    std::string name = "X-H";
    name += std::to_string(i);
    return name;
  };
  const auto value_of = [](int i) {
    std::string value = "v";
    value += std::to_string(i);
    return value;
  };
  for (int i = 0; i < 64; ++i) {
    req.headers.set(name_of(i), value_of(i));
  }
  const auto bytes = serialize(req);
  util::Arena arena(64);  // tiny slabs force mid-parse slab growth
  const auto view = parse_http_request(bytes, arena);
  ASSERT_TRUE(view.has_value());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(view->headers.get(name_of(i)), value_of(i));
  }
}

// --- Header scans against the parsers ---

// The scan's verdict and fields against the parser's, request and
// response readings of the same bytes alike.
void expect_scans_match_parsers(std::string_view bytes) {
  util::Arena arena;
  const auto req = parse_http_request(bytes, arena);
  const auto req_head = scan_http_request(bytes);
  ASSERT_EQ(req_head.has_value(), req.has_value()) << bytes;
  if (req) {
    EXPECT_EQ(req_head->method, req->method);
    EXPECT_EQ(req_head->target, req->target);
    EXPECT_EQ(req_head->request_id,
              req->headers.get("X-Openstack-Request-Id"));
  }
  const auto resp = parse_http_response(bytes, arena);
  const auto resp_head = scan_http_response(bytes);
  ASSERT_EQ(resp_head.has_value(), resp.has_value()) << bytes;
  if (resp) {
    EXPECT_EQ(resp_head->status, resp->status);
    EXPECT_EQ(resp_head->request_id,
              resp->headers.get("X-Openstack-Request-Id"));
  }
}

TEST(HttpHeaderScan, ReadsRequestLineAndRequestId) {
  auto req = sample_request();
  req.headers.set("X-Openstack-Request-Id", "req-42");
  const auto bytes = serialize(req);
  const auto head = scan_http_request(bytes);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->method, HttpMethod::Post);
  EXPECT_EQ(head->target, "/v2.0/ports.json");
  EXPECT_EQ(head->request_id, "req-42");
  expect_scans_match_parsers(bytes);
}

TEST(HttpHeaderScan, MoreThanThirtyTwoHeaders) {
  for (const int n : {31, 32, 33, 40, 64}) {
    HttpResponse resp;
    resp.status = 503;
    resp.body = "unavailable";
    for (int i = 0; i < n; ++i) {
      std::string name = "X-H";
      name += std::to_string(i);
      resp.headers.set(std::move(name), "v");
    }
    resp.headers.set("X-Openstack-Request-Id", "req-9");
    const auto bytes = serialize(resp);
    const auto head = scan_http_response(bytes);
    ASSERT_TRUE(head.has_value()) << n;
    EXPECT_EQ(head->status, 503);
    EXPECT_EQ(head->request_id, "req-9");
    expect_scans_match_parsers(bytes);
    // A malformed header past the parser's inline table still rejects.
    std::string broken = bytes;
    broken.insert(broken.find("X-Openstack"), "no colon here\r\n");
    EXPECT_FALSE(scan_http_response(broken).has_value());
    expect_scans_match_parsers(broken);
  }
}

TEST(HttpHeaderScan, FirstOfDuplicatedHeadersWins) {
  const std::string head = "POST /x HTTP/1.1\r\n";
  for (const std::string headers :
       {"Content-Length: 3\r\nContent-Length: junk\r\n",
        "Content-Length: junk\r\nContent-Length: 3\r\n",
        "content-length: 3\r\n", "CONTENT-LENGTH:3\r\n",
        "content-length: 4\r\n", "Content-Length: 3 \r\n",
        "Content-Length: +3\r\n", "Content-Length: \r\n",
        "Content-Length: 99999999999999999999999\r\n",
        "x-openstack-request-id: req-1\r\nX-Openstack-Request-Id: req-2\r\n",
        "X-OPENSTACK-REQUEST-ID:req-7\r\n"}) {
    const auto bytes = head + headers + "\r\nabc";
    expect_scans_match_parsers(bytes);
  }
  EXPECT_TRUE(scan_http_request(head + "content-length: 3\r\n\r\nabc"));
  EXPECT_FALSE(scan_http_request(head + "content-length: 4\r\n\r\nabc"));
  EXPECT_FALSE(scan_http_request(
      head + "Content-Length: junk\r\nContent-Length: 3\r\n\r\nabc"));
  EXPECT_EQ(scan_http_request(head +
                              "x-openstack-request-id: req-1\r\n"
                              "X-Openstack-Request-Id: req-2\r\n\r\n")
                ->request_id,
            "req-1");
}

TEST(HttpHeaderScan, LoneCarriageReturn) {
  for (const std::string bytes :
       {"GET /a\rb HTTP/1.1\r\n\r\n", "GET /a HTTP/1.1\r\nX: a\rb\r\n\r\n",
        "GET /a HTTP/1.1\r\nX\r: b\r\n\r\n", "GET /a HTTP/1.1\r\n\r",
        "GET /a HTTP/1.1\r\nX: b\r\n\r", "GET /a HTTP/1.1\r\nX: b\r",
        "GET /a HTTP/1.1\r\n\rX: b\r\n\r\n", "GET /a HTTP/1.1\r\r\n\r\n",
        "HTTP/1.1 200 O\rK\r\n\r\n", "HTTP/1.1 200 OK\r\n\r\r\n\r\n",
        "GET /a HTTP/1.1\n\r\n\r\n", "GET /a HTTP/1.1\r\nX: b\n\r\n"}) {
    expect_scans_match_parsers(bytes);
  }
  EXPECT_TRUE(scan_http_request("GET /a\rb HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(scan_http_request("GET /a HTTP/1.1\r\n\r"));
}

}  // namespace
}  // namespace gretel::wire
