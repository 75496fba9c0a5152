// AMQP-lite codec for RabbitMQ-brokered RPC traffic.
//
// All OpenStack intra-service communication is oslo.messaging RPC over
// RabbitMQ (§2 of the paper); the authors extended Bro with a custom
// RabbitMQ protocol parser to observe it.  This module is that parser's
// analog: a compact binary framing (deliberately shaped like AMQP 0-9-1
// frames) that carries the oslo envelope fields GRETEL needs — exchange /
// routing key (the RPC topic), the method name, the correlation msg_id, and
// whether the payload carries an error marker.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gretel::wire {

enum class AmqpFrameType : std::uint8_t {
  Publish = 1,  // basic.publish — an RPC request (or cast)
  Deliver = 2,  // basic.deliver — an RPC reply
};

struct AmqpFrame {
  AmqpFrameType type = AmqpFrameType::Publish;
  std::uint16_t channel = 1;
  std::string routing_key;  // oslo topic, e.g. "compute.node-3"
  std::string method_name;  // oslo method, e.g. "build_and_run_instance"
  std::uint64_t msg_id = 0;
  // oslo request/correlation id tying the message to one high-level
  // operation; 0 when the deployment doesn't emit them.
  std::uint32_t correlation_id = 0;
  // Payload as carried on the wire.  For replies with errors the payload
  // contains an oslo error envelope; GRETEL's detector greps it, never
  // JSON-parses it.
  std::string payload;
};

// Frame layout:
//   magic   u8      0xA9
//   type    u8      AmqpFrameType
//   channel u16be
//   msg_id  u64be
//   corr    u32be   correlation id (0 = absent)
//   rkey    u8-prefixed short string
//   method  u8-prefixed short string
//   payload u32be-prefixed bytes
//   end     u8      0xCE (AMQP frame-end octet)
std::string serialize(const AmqpFrame& frame);

// Zero-copy parse for the capture hot path: the string fields are views
// into `bytes`, valid only while the input buffer lives.  Strict: nullopt
// on bad magic, truncated fields, missing frame-end or trailing garbage.
struct AmqpFrameView {
  AmqpFrameType type = AmqpFrameType::Publish;
  std::uint16_t channel = 1;
  std::string_view routing_key;
  std::string_view method_name;
  std::uint64_t msg_id = 0;
  std::uint32_t correlation_id = 0;
  std::string_view payload;
};

std::optional<AmqpFrameView> parse_amqp_frame_view(std::string_view bytes);

// Builds the oslo-style error payload for a failed RPC; the detector's regex
// looks for the "_error" / "failure" markers this emits.
std::string make_rpc_error_payload(std::string_view exception_class,
                                   std::string_view message);

// Lightweight check (no JSON parsing) for an error marker in an RPC payload;
// mirrors GRETEL's "regular expressions to identify error codes" (§5.3).
bool rpc_payload_has_error(std::string_view payload);

}  // namespace gretel::wire
