#include "net/capture.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "wire/amqp_codec.h"
#include "wire/http_codec.h"

namespace gretel::net {

namespace {

inline bool ascii_digit(char c) { return c >= '0' && c <= '9'; }
inline bool ascii_hex(char c) {
  return ascii_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

}  // namespace

bool looks_like_identifier(std::string_view seg) {
  if (seg.empty()) return false;
  bool all_digits = true;
  std::size_t hexish = 0;
  for (char c : seg) {
    if (!ascii_digit(c)) all_digits = false;
    if (ascii_hex(c) || c == '-') ++hexish;
  }
  if (all_digits) return true;
  return seg.size() >= 8 && hexish == seg.size() &&
         seg.find('-') != std::string_view::npos;
}

std::string normalize_uri(std::string_view target) {
  // Drop the query string.
  if (const auto q = target.find('?'); q != std::string_view::npos)
    target = target.substr(0, q);

  std::string out;
  out.reserve(target.size());
  for (std::size_t pos = 0;;) {
    const auto slash = target.find('/', pos);
    const std::string_view seg = target.substr(pos, slash - pos);

    // Split a trailing ".json" / ".xml" style extension off the segment so
    // "/ports/<uuid>.json" normalizes to "/ports/<ID>.json".
    std::string_view stem = seg;
    std::string_view ext;
    if (const auto dot = seg.rfind('.'); dot != std::string_view::npos &&
                                         dot > 0 && seg.size() - dot <= 5) {
      stem = seg.substr(0, dot);
      ext = seg.substr(dot);
    }
    if (looks_like_identifier(stem)) {
      out += "<ID>";
      out += ext;
    } else {
      out += seg;
    }

    if (slash == std::string_view::npos) break;
    out += '/';
    pos = slash + 1;
  }
  return out;
}

std::uint32_t parse_correlation_id(std::optional<std::string_view> value) {
  if (!value || !value->starts_with("req-")) return 0;
  const std::string_view digits = value->substr(4);
  if (digits.empty()) return 0;
  std::uint32_t id = 0;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    const auto d = static_cast<std::uint32_t>(c - '0');
    // Reject rather than wrap: an aliased id would merge two unrelated
    // operations during snapshot reduction.
    if (id > (kMax - d) / 10) return 0;
    id = id * 10 + d;
  }
  return id;
}

CaptureTap::CaptureTap(
    const wire::ApiCatalog* catalog,
    std::unordered_map<std::uint16_t, wire::ServiceKind> service_by_port,
    std::size_t arena_slab_bytes)
    : catalog_(catalog),
      service_by_port_(std::move(service_by_port)),
      arena_(arena_slab_bytes) {}

void CaptureTap::quarantine_record(const WireRecord& record) {
  QuarantinedFrame q;
  q.ts = record.ts;
  q.src_node = record.src_node;
  q.dst_node = record.dst_node;
  q.is_amqp = record.is_amqp;
  q.wire_bytes = static_cast<std::uint32_t>(record.bytes.size());
  q.prefix = record.bytes.substr(
      0, std::min(record.bytes.size(), kQuarantinePrefixBytes));
  if (quarantine_ring_.size() < kQuarantineRingCapacity) {
    quarantine_ring_.push_back(std::move(q));
  } else {
    quarantine_ring_[quarantine_next_] = std::move(q);
  }
  quarantine_next_ = (quarantine_next_ + 1) % kQuarantineRingCapacity;
}

std::vector<QuarantinedFrame> CaptureTap::quarantine() const {
  if (quarantine_ring_.size() < kQuarantineRingCapacity) {
    return quarantine_ring_;
  }
  std::vector<QuarantinedFrame> out;
  out.reserve(quarantine_ring_.size());
  for (std::size_t i = 0; i < quarantine_ring_.size(); ++i) {
    out.push_back(
        quarantine_ring_[(quarantine_next_ + i) % kQuarantineRingCapacity]);
  }
  return out;
}

namespace {
// Open-connection expiry cadence, in decode() calls.  Expiry only drops
// connections far past any response, so the cadence bounds memory and
// never changes what decodes.
constexpr std::uint32_t kExpiryStride = 4096;
}  // namespace

std::optional<wire::ApiId> CaptureTap::response_api(
    std::uint32_t conn) const {
  if (const auto* open = open_conns_.find(conn)) return open->api;
  for (std::size_t k = 1; k <= closed_count_; ++k) {
    const auto& c = closed_conns_[(closed_next_ + kClosedConns - k) %
                                  kClosedConns];
    if (c.conn == conn) return c.api;
  }
  return std::nullopt;
}

void CaptureTap::close_connection(std::uint32_t conn, wire::ApiId api) {
  if (!open_conns_.erase(conn)) return;  // already closed: a re-delivery
  closed_conns_[closed_next_] = {conn, api};
  closed_next_ = (closed_next_ + 1) % kClosedConns;
  closed_count_ = std::min(closed_count_ + 1, kClosedConns);
}

void CaptureTap::expire_connections() {
  const util::SimTime cutoff = last_ts_ - kOpenConnectionHorizon;
  stats_.connections_expired +=
      open_conns_.erase_if([cutoff](std::uint32_t, const OpenConn& c) {
        return c.opened < cutoff;
      });
}

std::optional<wire::Event> CaptureTap::decode(const WireRecord& record) {
  stats_.bytes_seen += record.bytes.size();
  if (record.ts < last_ts_) {
    ++stats_.non_monotonic;
  } else {
    last_ts_ = record.ts;
  }
  if (++decodes_since_expiry_ >= kExpiryStride) {
    decodes_since_expiry_ = 0;
    expire_connections();
  }
  const auto failures_before = stats_.decode_failures;
  auto event = record.is_amqp ? decode_amqp(record) : decode_rest(record);
  if (stats_.decode_failures != failures_before) quarantine_record(record);
  if (event) {
    // Transport metadata and ground-truth labels common to both paths.
    event->ts = record.ts;
    event->src_node = record.src_node;
    event->dst_node = record.dst_node;
    event->src = record.src;
    event->dst = record.dst;
    event->wire_bytes = static_cast<std::uint32_t>(record.bytes.size());
    event->truth_instance = record.truth_instance;
    event->truth_template = record.truth_template;
    event->truth_noise = record.truth_noise;
    ++stats_.decoded;
  }
  return event;
}

std::optional<wire::Event> CaptureTap::decode_rest(const WireRecord& record) {
  wire::Event ev;
  ev.kind = wire::ApiKind::Rest;
  ev.conn_id = record.conn_id;

  if (std::string_view(record.bytes).starts_with("HTTP/")) {
    const auto resp = wire::scan_http_response(record.bytes);
    if (!resp) {
      ++stats_.decode_failures;
      return std::nullopt;
    }
    // Responses carry no URI; attribute to the request seen on this stream.
    const auto api = response_api(record.conn_id);
    if (!api) {
      ++stats_.unknown_api;
      return std::nullopt;
    }
    close_connection(record.conn_id, *api);
    ev.dir = wire::Direction::Response;
    ev.api = *api;
    ev.status = resp->status;
    ev.correlation_id = parse_correlation_id(resp->request_id);
    return ev;
  }

  const auto req = wire::scan_http_request(record.bytes);
  if (!req) {
    ++stats_.decode_failures;
    return std::nullopt;
  }
  const auto svc_it = service_by_port_.find(record.dst.port);
  if (svc_it == service_by_port_.end()) {
    ++stats_.unknown_api;
    return std::nullopt;
  }
  const auto api =
      catalog_->resolve_rest(svc_it->second, req->method, req->target);
  if (!api) {
    ++stats_.unknown_api;
    return std::nullopt;
  }
  ev.dir = wire::Direction::Request;
  ev.api = *api;
  ev.correlation_id = parse_correlation_id(req->request_id);
  open_conns_.insert_or_assign(record.conn_id, {*api, record.ts});
  return ev;
}

std::optional<wire::Event> CaptureTap::decode_amqp(const WireRecord& record) {
  const auto frame = wire::parse_amqp_frame_view(record.bytes);
  if (!frame) {
    ++stats_.decode_failures;
    return std::nullopt;
  }
  // Routing key format in the simulator: "<service>.<host>"; the service
  // token identifies the catalog namespace for the RPC method.
  std::string_view topic = frame->routing_key;
  if (const auto dot = topic.find('.'); dot != std::string_view::npos)
    topic = topic.substr(0, dot);
  const auto api = catalog_->find_rpc(wire::service_from_string(topic),
                                      frame->method_name);
  if (!api) {
    ++stats_.unknown_api;
    return std::nullopt;
  }

  wire::Event ev;
  ev.kind = wire::ApiKind::Rpc;
  ev.api = *api;
  ev.msg_id = frame->msg_id;
  ev.correlation_id = frame->correlation_id;
  if (frame->type == wire::AmqpFrameType::Publish) {
    ev.dir = wire::Direction::Request;
  } else {
    ev.dir = wire::Direction::Response;
    if (wire::rpc_payload_has_error(frame->payload)) {
      ev.status = 500;
    } else {
      ev.status = wire::kStatusOk;
    }
  }
  return ev;
}

}  // namespace gretel::net
