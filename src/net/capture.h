// Capture taps: the Bro-agent analog.
//
// The simulated services emit WireRecords — raw bytes plus the transport
// metadata a packet capture sees (timestamps, addresses, TCP stream id).
// CaptureTap decodes only what GRETEL reads, at header level (§5.3):
//  * REST requests: the request line, walked once against the catalog's
//    per-(service, method) URI trie (ApiCatalog::resolve_rest), which maps
//    concrete ids back to "<ID>" template segments as it goes;
//  * REST responses: the status code, attributed to the request last seen
//    on the same TCP stream;
//  * both: the headers are scanned only to validate the framing and to
//    read Content-Length and X-Openstack-Request-Id (wire::scan_http_*);
//  * RPC frames: the routing-key service, the method name, the msg id and
//    one pass of the error-marker scan over reply payloads.
// It produces the flat Events the analyzer consumes.  Ground-truth labels
// ride alongside the bytes for the evaluation harness only.
//
// normalize_uri and the owning/arena HTTP parsers are not on this path;
// they remain as the references the trie and the header scans are tested
// against.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/arena.h"
#include "util/flat_map.h"
#include "util/time.h"
#include "wire/api.h"
#include "wire/message.h"

namespace gretel::net {

// What the wire sees for one message, before decoding.
struct WireRecord {
  util::SimTime ts;
  wire::NodeId src_node;
  wire::NodeId dst_node;
  wire::Endpoint src;
  wire::Endpoint dst;
  std::uint32_t conn_id = 0;  // TCP stream id (REST); 0 for AMQP
  bool is_amqp = false;
  std::string bytes;

  // Ground truth for evaluation (never read by the tap's decode path when
  // resolving APIs — only copied through into the Event).
  wire::OpInstanceId truth_instance;
  wire::OpTemplateId truth_template;
  bool truth_noise = false;
  // Payload identifiers (tenant id, resource UUID hashes) the simulator
  // stamps on a message.  GRETEL never reads them; the HANSEL baseline
  // stitches on them (hansel::Hansel::on_message).
  std::vector<std::uint32_t> identifiers;
};

// Replaces URI segments that look like concrete identifiers (UUIDs, hex
// blobs, plain numbers) with the catalog placeholder "<ID>".  Query strings
// are dropped.  The reference ApiCatalog::resolve_rest is tested against:
// resolve_rest(s, m, target) == find_rest(s, m, normalize_uri(target)).
std::string normalize_uri(std::string_view target);

// normalize_uri's id test for one segment stem: a pure number, or a
// hex/dash token of length >= 8 holding a dash.  The reference for
// wire::is_identifier.
bool looks_like_identifier(std::string_view stem);

// Parses OpenStack's "req-<n>" correlation value; 0 when absent, malformed,
// or too large for 32 bits (a wrapped id would silently alias another
// operation's snapshot reduction).  Exposed for tests.
std::uint32_t parse_correlation_id(std::optional<std::string_view> value);

struct TapStats {
  std::uint64_t decoded = 0;
  // Malformed frames (truncated / corrupted / garbage).  Every one is also
  // quarantined: counted here and sampled into the tap's postmortem ring.
  std::uint64_t decode_failures = 0;
  std::uint64_t unknown_api = 0;
  std::uint64_t bytes_seen = 0;
  // Frames whose capture timestamp regressed behind an earlier frame's
  // (clock skew between tapped nodes, or a reordering tap).
  std::uint64_t non_monotonic = 0;
  // Open REST connections dropped because no response arrived within
  // kOpenConnectionHorizon of capture time (the wire lost it).
  std::uint64_t connections_expired = 0;
};

// Postmortem sample of a malformed frame: enough transport metadata and
// leading bytes to identify the emitter and failure shape without retaining
// the whole (possibly large, possibly hostile) payload.
struct QuarantinedFrame {
  util::SimTime ts;
  wire::NodeId src_node;
  wire::NodeId dst_node;
  bool is_amqp = false;
  std::uint32_t wire_bytes = 0;
  std::string prefix;  // first bytes of the frame (kQuarantinePrefixBytes)
};

inline constexpr std::size_t kQuarantinePrefixBytes = 48;
inline constexpr std::size_t kQuarantineRingCapacity = 16;

// A REST request still unanswered this long after it was captured lost its
// response on the wire; the tap stops holding its connection.  Far beyond
// any API timeout, so only lost responses expire.
inline constexpr util::SimDuration kOpenConnectionHorizon =
    util::SimDuration::seconds(300);

class CaptureTap {
 public:
  // The tap needs the API catalog to resolve symbols and the node->service
  // map to attribute a REST request to the service exposing the endpoint.
  // `arena_slab_bytes` sizes the arena() slabs (the analyzer passes the
  // fixed GretelConfig::decode_arena_kb); decode does not use the arena.
  CaptureTap(const wire::ApiCatalog* catalog,
             std::unordered_map<std::uint16_t, wire::ServiceKind>
                 service_by_port,
             std::size_t arena_slab_bytes = util::Arena::kDefaultSlabBytes);

  // Decodes one captured message.  Returns nullopt for undecodable bytes or
  // APIs missing from the catalog (counted in stats).
  //
  // Zero-allocation steady state: the header scans and the trie walk keep
  // views into record.bytes and need no scratch, the returned Event is a
  // flat row, and the connection table reuses its slots.
  std::optional<wire::Event> decode(const WireRecord& record);

  const TapStats& stats() const { return stats_; }

  // REST connections whose request decoded and whose response has not yet:
  // the requests in flight, plus those whose response the wire lost within
  // the last kOpenConnectionHorizon.
  std::size_t open_connections() const { return open_conns_.size(); }

  // Most recent malformed frames (up to kQuarantineRingCapacity), oldest
  // first.  stats().decode_failures counts every quarantined frame; the
  // ring keeps a bounded sample for postmortem.
  std::vector<QuarantinedFrame> quarantine() const;

  // Scratch arena introspection; decode() leaves it untouched.
  const util::Arena& arena() const { return arena_; }

 private:
  std::optional<wire::Event> decode_rest(const WireRecord& record);
  std::optional<wire::Event> decode_amqp(const WireRecord& record);

  struct ConnHash {
    std::uint64_t operator()(std::uint32_t conn) const {
      return util::mix64(conn);
    }
  };
  // Resolves a response to the API of the request last seen on its TCP
  // stream (Bro pairs them the same way): the open table, then the ring of
  // recently closed streams, newest first.  nullopt when neither has it.
  std::optional<wire::ApiId> response_api(std::uint32_t conn) const;
  void close_connection(std::uint32_t conn, wire::ApiId api);
  // Drops open connections older than kOpenConnectionHorizon.
  void expire_connections();
  void quarantine_record(const WireRecord& record);

  const wire::ApiCatalog* catalog_;
  std::unordered_map<std::uint16_t, wire::ServiceKind> service_by_port_;
  // Streams whose request decoded and whose response has not: the request's
  // API and capture time.
  struct OpenConn {
    wire::ApiId api;
    util::SimTime opened;
  };
  util::FlatMap<std::uint32_t, OpenConn, ConnHash> open_conns_;
  std::uint32_t decodes_since_expiry_ = 0;
  // Streams whose response decoded, kept a little longer so a response
  // the wire delivers twice (ChaosTap duplication) still resolves.
  struct ClosedConn {
    std::uint32_t conn = 0;
    wire::ApiId api;
  };
  static constexpr std::size_t kClosedConns = 16;
  std::array<ClosedConn, kClosedConns> closed_conns_{};
  std::size_t closed_next_ = 0;
  std::size_t closed_count_ = 0;

  util::Arena arena_;  // sized by the constructor; no decode step reads it
  TapStats stats_;
  util::SimTime last_ts_;
  // Fixed-capacity quarantine ring: slot i of the latest samples, oldest
  // overwritten first.
  std::vector<QuarantinedFrame> quarantine_ring_;
  std::size_t quarantine_next_ = 0;
};

}  // namespace gretel::net
