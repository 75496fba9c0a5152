// The observable unit GRETEL works on: one REST or RPC message.
//
// GRETEL never parses JSON payloads (§5.3); everything the analyzer consumes
// is in this header-level view: the API identity, direction, status code,
// timestamps and transport correlation keys (TCP connection for REST, message
// id for RPC) used to pair requests with responses for latency computation.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/ids.h"
#include "util/time.h"
#include "wire/api.h"
#include "wire/endpoint.h"

namespace gretel::wire {

struct OpInstanceTag {};
// One *execution* of a high-level administrative operation.  Ground truth for
// the evaluation harness; the production analyzer never reads it.
using OpInstanceId = util::StrongId<OpInstanceTag, std::uint32_t>;

struct OpTemplateTag {};
// One high-level administrative operation *type* (e.g. "VM create").
using OpTemplateId = util::StrongId<OpTemplateTag, std::uint32_t>;

enum class Direction : std::uint8_t { Request, Response };

// HTTP-style status classes the anomaly detector cares about.
inline constexpr std::uint16_t kStatusOk = 200;
inline bool is_error_status(std::uint16_t status) { return status >= 400; }

struct Event {
  // Monotonic capture sequence number, assigned by the receiving tap.
  std::uint64_t seq = 0;
  util::SimTime ts;

  ApiId api;
  ApiKind kind = ApiKind::Rest;
  Direction dir = Direction::Request;

  NodeId src_node;
  NodeId dst_node;
  Endpoint src;
  Endpoint dst;

  // REST: the TCP connection carrying the exchange (request/response pairing
  // per §5.3 "IP and port").  RPC: 0.
  std::uint32_t conn_id = 0;
  // RPC: oslo.messaging msg_id unique per request/response pair.  REST: 0.
  std::uint64_t msg_id = 0;

  // Responses: HTTP status, or an RPC error indicator (0 = success,
  // 500 = remote error payload present).  Requests: 0.
  std::uint16_t status = 0;

  // Size of the message on the wire, for throughput accounting.
  std::uint32_t wire_bytes = 0;

  // Error text fragment for RPC responses; the detector runs its lightweight
  // regular-expression scan over this, never a JSON parse.
  std::string error_text;

  // Payload identifiers (tenant id, resource UUID hashes).  GRETEL ignores
  // these; the HANSEL baseline stitches on them.
  std::vector<std::uint32_t> identifiers;

  // OpenStack's per-operation correlation identifier (§5.3.1: "GRETEL can
  // exploit these correlation identifiers to increase its precision").
  // 0 = absent — deployments without the (still rolling out, per the
  // paper) correlation-id support.
  std::uint32_t correlation_id = 0;

  // --- Ground truth (evaluation only; hidden from the detectors) ---
  OpInstanceId truth_instance;
  OpTemplateId truth_template;
  bool truth_noise = false;  // heartbeat / periodic / auth chatter

  bool is_request() const { return dir == Direction::Request; }
  bool is_response() const { return dir == Direction::Response; }
  bool is_error() const {
    return is_response() && is_error_status(status);
  }
};

// The fixed-size slice of an Event that the detection front half reads:
// error-status scan, request/response pairing and the level-shift feed
// consume exactly these fields (LatencyTracker::observe touches nothing
// else).  The detector builds one per ingested event instead of copying the
// full Event — a flat 40-byte copy with no strings and no identifier
// vectors.  Trivially copyable by construction; the static_assert keeps it
// that way.
struct EventHeader {
  std::uint64_t seq = 0;
  util::SimTime ts;
  std::uint64_t msg_id = 0;
  std::uint32_t conn_id = 0;
  ApiId api;
  ApiKind kind = ApiKind::Rest;
  Direction dir = Direction::Request;
  std::uint16_t status = 0;

  EventHeader() = default;
  explicit EventHeader(const Event& e) : EventHeader(e, e.seq) {}
  // Header with the sequence number assigned at ingestion time (the wire
  // Event's own seq field may still be the capture default).
  EventHeader(const Event& e, std::uint64_t assigned_seq)
      : seq(assigned_seq),
        ts(e.ts),
        msg_id(e.msg_id),
        conn_id(e.conn_id),
        api(e.api),
        kind(e.kind),
        dir(e.dir),
        status(e.status) {}

  bool is_request() const { return dir == Direction::Request; }
  bool is_response() const { return dir == Direction::Response; }
  bool is_error() const {
    return is_response() && is_error_status(status);
  }
};
static_assert(std::is_trivially_copyable_v<EventHeader>,
              "EventHeader must stay a flat copy");

}  // namespace gretel::wire
