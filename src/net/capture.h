// Capture taps: the Bro-agent analog.
//
// The simulated services emit WireRecords — raw bytes plus the transport
// metadata a packet capture sees (timestamps, addresses, TCP stream id).
// CaptureTap decodes those bytes with the wire codecs, normalizes concrete
// URIs back to catalog templates (UUIDs → <ID>), resolves the ApiId, and
// produces the header-level Events the analyzer consumes.  Ground-truth
// labels ride alongside the bytes for the evaluation harness only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/arena.h"
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
  std::vector<std::uint32_t> identifiers;
};

// Replaces URI segments that look like concrete identifiers (UUIDs, hex
// blobs, plain numbers) with the catalog placeholder "<ID>".  Query strings
// are dropped.  Exposed for tests.
std::string normalize_uri(std::string_view target);

// Hot-path variant: writes the normalized URI into `arena` scratch and
// returns a view that dies at the arena's next reset().  Byte-identical
// output to normalize_uri.
std::string_view normalize_uri(std::string_view target, util::Arena& arena);

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

class CaptureTap {
 public:
  // The tap needs the API catalog to resolve symbols and the node->service
  // map to attribute a REST request to the service exposing the endpoint.
  // `arena_slab_bytes` sizes the decode scratch arena's slabs (the
  // analyzer passes the fixed GretelConfig::decode_arena_kb).
  CaptureTap(const wire::ApiCatalog* catalog,
             std::unordered_map<std::uint16_t, wire::ServiceKind>
                 service_by_port,
             std::size_t arena_slab_bytes = util::Arena::kDefaultSlabBytes);

  // Decodes one captured message.  Returns nullopt for undecodable bytes or
  // APIs missing from the catalog (counted in stats).
  //
  // Zero-allocation steady state: headers, the normalized URI, and all
  // parse scratch live in the tap's arena (reset per call); the returned
  // Event owns no heap memory unless the record carries ground-truth
  // identifiers or an error payload that must outlive the batch.
  std::optional<wire::Event> decode(const WireRecord& record);

  const TapStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TapStats{}; }

  // Most recent malformed frames (up to kQuarantineRingCapacity), oldest
  // first.  stats().decode_failures counts every quarantined frame; the
  // ring keeps a bounded sample for postmortem.
  std::vector<QuarantinedFrame> quarantine() const;

  // Decode scratch introspection (bench / tests).
  const util::Arena& arena() const { return arena_; }

 private:
  std::optional<wire::Event> decode_rest(const WireRecord& record);
  std::optional<wire::Event> decode_amqp(const WireRecord& record);

  const wire::ApiCatalog* catalog_;
  std::unordered_map<std::uint16_t, wire::ServiceKind> service_by_port_;
  // Per-TCP-stream last request API, so responses resolve to the same API
  // (Bro pairs them the same way).
  std::unordered_map<std::uint32_t, wire::ApiId> conn_last_api_;
  void quarantine_record(const WireRecord& record);

  util::Arena arena_;  // per-record parse scratch, reset every decode()
  TapStats stats_;
  util::SimTime last_ts_;
  // Fixed-capacity quarantine ring: slot i of the latest samples, oldest
  // overwritten first.
  std::vector<QuarantinedFrame> quarantine_ring_;
  std::size_t quarantine_next_ = 0;
};

}  // namespace gretel::net
