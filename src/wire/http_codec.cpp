#include "wire/http_codec.h"

#include <charconv>

#include "util/swar.h"

namespace gretel::wire {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kVersion = "HTTP/1.1";

// Header names are ASCII; a locale-aware tolower per character is measurable
// overhead on the capture hot path, so lower-case the ASCII range directly.
inline char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

// Position of the first CRLF in `s` at or after `pos`, or npos.  A lone
// CR is line content.
std::size_t find_crlf(std::string_view s, std::size_t pos) {
  const auto crlf_at = [s](std::size_t at) {
    return s[at] == '\r' && at + 1 < s.size() && s[at + 1] == '\n';
  };
  for (; pos + 8 <= s.size(); pos += 8) {
    for (auto crs = util::swar::match(util::swar::load(s.data() + pos), '\r');
         crs; crs = util::swar::drop_first(crs)) {
      const auto at = pos + util::swar::first(crs);
      if (crlf_at(at)) return at;
    }
  }
  for (; pos < s.size(); ++pos) {
    if (crlf_at(pos)) return pos;
  }
  return std::string_view::npos;
}

// Consumes one CRLF-terminated line from `rest`; nullopt when no CRLF found.
std::optional<std::string_view> take_line(std::string_view& rest) {
  const auto pos = find_crlf(rest, 0);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view line = rest.substr(0, pos);
  rest.remove_prefix(pos + kCrlf.size());
  return line;
}

// Splits one "Name: value" line; false on malformed input.
bool split_header_line(std::string_view line, HttpHeaderView& out) {
  const auto colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  std::string_view value = line.substr(colon + 1);
  while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  out = HttpHeaderView{line.substr(0, colon), value};
  return true;
}

// Parses "Name: value" header lines until the blank line into an
// arena-backed view array; false on malformed input or missing terminator.
// Single pass through a stack buffer sized for real-world messages, then one
// exact-size arena copy; messages with more headers fall back to a counting
// pass so the array is still allocated exactly once.
bool parse_headers(std::string_view& rest, util::Arena& arena,
                   HttpHeadersView& out) {
  constexpr std::size_t kInline = 32;
  HttpHeaderView local[kInline];
  const std::string_view saved = rest;
  std::size_t count = 0;
  while (true) {
    auto line = take_line(rest);
    if (!line) return false;
    if (line->empty()) {
      HttpHeaderView* fields =
          count == 0 ? nullptr : arena.allocate_array<HttpHeaderView>(count);
      for (std::size_t i = 0; i < count; ++i) fields[i] = local[i];
      out.fields = std::span<const HttpHeaderView>(fields, count);
      return true;
    }
    if (count == kInline) break;  // rare: fall back to two passes
    if (!split_header_line(*line, local[count])) return false;
    ++count;
  }

  // Overflow path: count the remaining lines, then fill from the start.
  rest = saved;
  count = 0;
  {
    std::string_view scan = rest;
    while (true) {
      auto line = take_line(scan);
      if (!line) return false;
      if (line->empty()) break;
      const auto colon = line->find(':');
      if (colon == std::string_view::npos || colon == 0) return false;
      ++count;
    }
  }
  HttpHeaderView* fields = arena.allocate_array<HttpHeaderView>(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto line = take_line(rest);
    if (!split_header_line(*line, fields[i])) return false;
  }
  take_line(rest);  // the blank terminator, verified by the counting pass
  out.fields = std::span<const HttpHeaderView>(fields, count);
  return true;
}

// Reads the body per the first Content-Length value; strict about
// truncation.
std::optional<std::string_view> read_body(
    std::string_view rest, std::optional<std::string_view> content_length) {
  std::size_t length = 0;
  if (content_length) {
    const auto* begin = content_length->data();
    const auto* end = begin + content_length->size();
    auto [ptr, ec] = std::from_chars(begin, end, length);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
  }
  if (rest.size() < length) return std::nullopt;  // truncated capture
  return rest.substr(0, length);
}

// Validates the header lines exactly as parse_headers + read_body do,
// keeping only the first X-Openstack-Request-Id value.  Each line's name
// runs to its first colon; only names of the two lengths GRETEL reads are
// compared.
bool scan_headers(std::string_view& rest,
                  std::optional<std::string_view>& request_id) {
  constexpr std::string_view kContentLength = "content-length";
  constexpr std::string_view kRequestId = "x-openstack-request-id";
  const auto value_of = [&rest](std::size_t colon, std::size_t end) {
    auto value = rest.substr(colon + 1, end - colon - 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    return value;
  };
  std::optional<std::string_view> content_length;
  for (std::size_t line = 0;;) {
    // A CRLF before any colon ends the headers (on an empty line) or
    // leaves the line without a colon.
    std::size_t colon = line;
    for (;; ++colon) {
      if (colon == rest.size()) return false;  // no CRLF
      if (rest[colon] == ':') break;
      if (rest[colon] == '\r' && colon + 1 < rest.size() &&
          rest[colon + 1] == '\n') {
        if (colon != line) return false;
        rest.remove_prefix(colon + kCrlf.size());
        return read_body(rest, content_length).has_value();
      }
    }
    if (colon == line) return false;  // empty name
    const auto end = find_crlf(rest, colon + 1);
    if (end == std::string_view::npos) return false;
    const auto name = rest.substr(line, colon - line);
    if (name.size() == kContentLength.size()) {
      if (!content_length && iequals(name, kContentLength))
        content_length = value_of(colon, end);
    } else if (name.size() == kRequestId.size()) {
      if (!request_id && iequals(name, kRequestId))
        request_id = value_of(colon, end);
    }
    line = end + kCrlf.size();
  }
}

struct RequestLine {
  HttpMethod method;
  std::string_view target;
};

// Consumes and parses "METHOD SP target SP HTTP/1.1".
std::optional<RequestLine> take_request_line(std::string_view& rest) {
  const auto line = take_line(rest);
  if (!line) return std::nullopt;
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  const auto method = parse_http_method(line->substr(0, sp1));
  if (!method) return std::nullopt;
  const std::string_view target = line->substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || line->substr(sp2 + 1) != kVersion)
    return std::nullopt;
  return RequestLine{*method, target};
}

struct StatusLine {
  std::uint16_t status;
  std::string_view reason;
};

// Consumes and parses "HTTP/1.1 SP code SP reason".
std::optional<StatusLine> take_status_line(std::string_view& rest) {
  const auto line = take_line(rest);
  if (!line) return std::nullopt;
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  if (line->substr(0, sp1) != kVersion) return std::nullopt;
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  const std::string_view code = line->substr(sp1 + 1, sp2 - sp1 - 1);
  std::uint16_t status = 0;
  auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc{} || ptr != code.data() + code.size())
    return std::nullopt;
  if (status < 100 || status > 599) return std::nullopt;
  return StatusLine{status, line->substr(sp2 + 1)};
}

void append_headers(std::string& out, const HttpHeaders& headers,
                    std::size_t body_size) {
  bool have_cl = false;
  for (const auto& [name, value] : headers.fields) {
    out += name;
    out += ": ";
    out += value;
    out += kCrlf;
    if (iequals(name, "Content-Length")) have_cl = true;
  }
  if (!have_cl) {
    out += "Content-Length: ";
    out += std::to_string(body_size);
    out += kCrlf;
  }
  out += kCrlf;
}

}  // namespace

std::optional<std::string_view> HttpHeadersView::get(
    std::string_view name) const {
  for (const auto& [n, v] : fields) {
    if (iequals(n, name)) return v;
  }
  return std::nullopt;
}

std::string_view reason_phrase(std::uint16_t status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 409:
      return "Conflict";
    case 413:
      return "Request Entity Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

std::string serialize(const HttpRequest& req) {
  std::string out;
  out.reserve(128 + req.body.size());
  out += to_string(req.method);
  out += ' ';
  out += req.target;
  out += ' ';
  out += kVersion;
  out += kCrlf;
  append_headers(out, req.headers, req.body.size());
  out += req.body;
  return out;
}

std::string serialize(const HttpResponse& resp) {
  std::string out;
  out.reserve(128 + resp.body.size());
  out += kVersion;
  out += ' ';
  out += std::to_string(resp.status);
  out += ' ';
  out += resp.reason.empty() ? std::string(reason_phrase(resp.status))
                             : resp.reason;
  out += kCrlf;
  append_headers(out, resp.headers, resp.body.size());
  out += resp.body;
  return out;
}

std::optional<HttpRequestView> parse_http_request(std::string_view bytes,
                                                  util::Arena& arena) {
  std::string_view rest = bytes;
  const auto line = take_request_line(rest);
  if (!line) return std::nullopt;

  HttpRequestView req;
  req.method = line->method;
  req.target = line->target;
  if (!parse_headers(rest, arena, req.headers)) return std::nullopt;
  auto body = read_body(rest, req.headers.get("Content-Length"));
  if (!body) return std::nullopt;
  req.body = *body;
  return req;
}

std::optional<HttpResponseView> parse_http_response(std::string_view bytes,
                                                    util::Arena& arena) {
  std::string_view rest = bytes;
  const auto line = take_status_line(rest);
  if (!line) return std::nullopt;

  HttpResponseView resp;
  resp.status = line->status;
  resp.reason = line->reason;
  if (!parse_headers(rest, arena, resp.headers)) return std::nullopt;
  auto body = read_body(rest, resp.headers.get("Content-Length"));
  if (!body) return std::nullopt;
  resp.body = *body;
  return resp;
}

std::optional<HttpRequestHead> scan_http_request(std::string_view bytes) {
  std::string_view rest = bytes;
  const auto line = take_request_line(rest);
  if (!line) return std::nullopt;
  HttpRequestHead head;
  head.method = line->method;
  head.target = line->target;
  if (!scan_headers(rest, head.request_id)) return std::nullopt;
  return head;
}

std::optional<HttpResponseHead> scan_http_response(std::string_view bytes) {
  std::string_view rest = bytes;
  const auto line = take_status_line(rest);
  if (!line) return std::nullopt;
  HttpResponseHead head;
  head.status = line->status;
  if (!scan_headers(rest, head.request_id)) return std::nullopt;
  return head;
}

}  // namespace gretel::wire
