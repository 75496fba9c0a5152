// HTTP/1.1 wire codec for OpenStack REST traffic.
//
// The real GRETEL deployment captured REST calls with Bro; here the capture
// tap decodes the byte stream produced by the simulated services.  The codec
// understands exactly the header-level subset GRETEL needs: request line /
// status line, Host, Content-Length, and the X-Service header the paper
// proposes so clients identify the originating component (§5.4).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "wire/api.h"

namespace gretel::wire {

struct HttpHeaders {
  std::vector<std::pair<std::string, std::string>> fields;

  void set(std::string name, std::string value) {
    fields.emplace_back(std::move(name), std::move(value));
  }
};

struct HttpRequest {
  HttpMethod method = HttpMethod::Get;
  std::string target;  // request URI
  HttpHeaders headers;
  std::string body;
};

struct HttpResponse {
  std::uint16_t status = 200;
  std::string reason;
  HttpHeaders headers;
  std::string body;
};

// Canonical reason phrase for the status codes the simulator emits.
std::string_view reason_phrase(std::uint16_t status);

std::string serialize(const HttpRequest& req);
std::string serialize(const HttpResponse& resp);

// --- Zero-copy parsers (the capture hot path) ---
//
// The parsers decode into string_views over the caller's byte buffer: no
// header copies, no body copy, no per-field strings.  The only storage they
// need — the header field array — comes from the caller's arena, so a
// warmed-up decode loop performs zero heap allocations per message.
//
// Lifetime: every view is valid only while BOTH the input buffer and the
// arena generation (until its next reset()) are alive.  Anything that must
// outlive the capture batch has to be copied out (see docs/ARCHITECTURE.md,
// "Hot path & memory model").

struct HttpHeaderView {
  std::string_view name;
  std::string_view value;
};

struct HttpHeadersView {
  std::span<const HttpHeaderView> fields;

  // Case-insensitive lookup of the first matching header.
  std::optional<std::string_view> get(std::string_view name) const;
};

struct HttpRequestView {
  HttpMethod method = HttpMethod::Get;
  std::string_view target;
  HttpHeadersView headers;
  std::string_view body;
};

struct HttpResponseView {
  std::uint16_t status = 200;
  std::string_view reason;
  HttpHeadersView headers;
  std::string_view body;
};

// Both parsers are strict about framing (CRLF line endings, Content-Length
// consistent with the body) and return nullopt on truncated or malformed
// input rather than guessing.
std::optional<HttpRequestView> parse_http_request(std::string_view bytes,
                                                  util::Arena& arena);
std::optional<HttpResponseView> parse_http_response(std::string_view bytes,
                                                    util::Arena& arena);

// --- Header-level scans (what the capture tap reads) ---
//
// The tap needs the request line or status code, the first
// X-Openstack-Request-Id value, and whether the message is well framed.
// The scans accept and reject exactly the bytes the parsers above accept
// and reject, but read each header only to validate it and to pick out
// Content-Length and X-Openstack-Request-Id: nothing is tabled, so they
// need no arena.  Views are valid while the input buffer lives.

struct HttpRequestHead {
  HttpMethod method = HttpMethod::Get;
  std::string_view target;
  std::optional<std::string_view> request_id;
};

struct HttpResponseHead {
  std::uint16_t status = 200;
  std::optional<std::string_view> request_id;
};

std::optional<HttpRequestHead> scan_http_request(std::string_view bytes);
std::optional<HttpResponseHead> scan_http_response(std::string_view bytes);

}  // namespace gretel::wire
