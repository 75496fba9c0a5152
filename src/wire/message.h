// The observable unit GRETEL works on: one REST or RPC message.
//
// GRETEL never parses JSON payloads (§5.3); everything the analyzer consumes
// is in this header-level view: the API identity, direction, status code,
// timestamps and transport correlation keys (TCP connection for REST, message
// id for RPC) used to pair requests with responses for latency computation.
#pragma once

#include <cstdint>
#include <type_traits>

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

  // Responses: HTTP status, or an RPC error indicator (200 = success,
  // 500 = remote error payload present).  RPC errors are found when the tap
  // decodes the frame: CaptureTap::decode_amqp runs the lightweight error
  // scan (wire::rpc_payload_has_error, §5.3 "regular expressions") over the
  // payload, which is never copied into the Event.  Requests: 0.
  std::uint16_t status = 0;

  // Size of the message on the wire, for throughput accounting.
  std::uint32_t wire_bytes = 0;

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

// A flat row: the dual buffer copies events by plain assignment and a
// report's error events are one contiguous vector.  Payload bytes, HANSEL's
// payload identifiers and error text stay in the net::WireRecord.
static_assert(std::is_trivially_copyable_v<Event>,
              "wire::Event must stay a flat row");

}  // namespace gretel::wire
