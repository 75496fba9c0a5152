#include "wire/http_codec.h"

#include <charconv>

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

// Consumes one CRLF-terminated line from `rest`; nullopt when no CRLF found.
std::optional<std::string_view> take_line(std::string_view& rest) {
  const auto pos = rest.find(kCrlf);
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

// Reads the body per Content-Length; strict about truncation.
std::optional<std::string_view> read_body(std::string_view rest,
                                          const HttpHeadersView& headers) {
  std::size_t length = 0;
  if (auto cl = headers.get("Content-Length")) {
    const auto* begin = cl->data();
    const auto* end = begin + cl->size();
    auto [ptr, ec] = std::from_chars(begin, end, length);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
  }
  if (rest.size() < length) return std::nullopt;  // truncated capture
  return rest.substr(0, length);
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
  auto line = take_line(rest);
  if (!line) return std::nullopt;

  // Request line: METHOD SP target SP HTTP/1.1
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  const auto method = parse_http_method(line->substr(0, sp1));
  if (!method) return std::nullopt;
  std::string_view target = line->substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || line->substr(sp2 + 1) != kVersion)
    return std::nullopt;

  HttpRequestView req;
  req.method = *method;
  req.target = target;
  if (!parse_headers(rest, arena, req.headers)) return std::nullopt;
  auto body = read_body(rest, req.headers);
  if (!body) return std::nullopt;
  req.body = *body;
  return req;
}

std::optional<HttpResponseView> parse_http_response(std::string_view bytes,
                                                    util::Arena& arena) {
  std::string_view rest = bytes;
  auto line = take_line(rest);
  if (!line) return std::nullopt;

  // Status line: HTTP/1.1 SP code SP reason
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  if (line->substr(0, sp1) != kVersion) return std::nullopt;
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  std::string_view code = line->substr(sp1 + 1, sp2 - sp1 - 1);
  std::uint16_t status = 0;
  {
    auto [ptr, ec] = std::from_chars(code.data(), code.data() + code.size(),
                                     status);
    if (ec != std::errc{} || ptr != code.data() + code.size())
      return std::nullopt;
  }
  if (status < 100 || status > 599) return std::nullopt;

  HttpResponseView resp;
  resp.status = status;
  resp.reason = line->substr(sp2 + 1);
  if (!parse_headers(rest, arena, resp.headers)) return std::nullopt;
  auto body = read_body(rest, resp.headers);
  if (!body) return std::nullopt;
  resp.body = *body;
  return resp;
}

}  // namespace gretel::wire
