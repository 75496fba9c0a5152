// HANSEL baseline (Sharma et al., CoNEXT '15) — the comparator in §7.4/§9.2.
//
// Faithful to the properties the GRETEL paper contrasts against:
//  * stitches on *every* message by linking payload identifiers (tenant ids,
//    resource UUIDs) into chains — heavy-duty work per message;
//  * buffers messages in 30-second time buckets to tolerate delayed or
//    out-of-order arrivals, so error reporting lags up to the bucket length;
//  * on an operational error it reports the low-level chain of messages that
//    share identifiers with the error — not the administrative operation —
//    and common identifiers link the faulty operation with unrelated
//    successful ones.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/capture.h"
#include "util/time.h"
#include "wire/message.h"

namespace gretel::hansel {

struct Chain {
  std::vector<wire::Event> events;
  util::SimTime reported_at;  // bucket close time (the ~30 s lag)

  // Distinct ground-truth operation instances linked into this chain —
  // the over-linking measure (1 would be precise).
  std::size_t distinct_instances() const;
};

class Hansel {
 public:
  struct Options {
    util::SimDuration bucket = util::SimDuration::seconds(30);
  };

  Hansel();
  explicit Hansel(Options options);

  // Stitching runs on every message (unlike GRETEL's fault-triggered
  // snapshots): `event` is linked to every earlier message of the open
  // bucket sharing one of `identifiers`.  Chains for buckets that closed
  // are appended to chains().
  void on_event(const wire::Event& event,
                std::span<const std::uint32_t> identifiers);

  // The production path: HANSEL "analyzes the request and response payloads
  // to extract meaningful identifiers" (§9.2) — scans the captured bytes
  // for numeric and UUID-like tokens, appends them to the record's
  // identifiers, and stitches `event` (the record's decoded form) on the
  // lot.  This per-message payload analysis is a large part of why HANSEL
  // peaks at ~1.6K messages/s.
  void on_message(const net::WireRecord& record, const wire::Event& event);

  // Numeric tokens (4-10 digits, skipping short protocol numbers like
  // status codes) parsed directly; UUID-ish hex tokens hashed.  Exposed
  // for tests.
  static std::vector<std::uint32_t> extract_identifiers(
      std::string_view payload);

  // Closes the current bucket at end of stream.
  void flush();

  const std::vector<Chain>& chains() const { return chains_; }

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t unions = 0;
    std::uint64_t error_groups = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Group {
    std::vector<wire::Event> events;
    bool has_error = false;
  };

  std::uint32_t find(std::uint32_t g);
  void unite(std::uint32_t a, std::uint32_t b);
  void close_bucket(util::SimTime now);

  Options options_;
  util::SimTime bucket_end_;
  bool bucket_open_ = false;

  // Union-find over groups within the open bucket.
  std::vector<std::uint32_t> parent_;
  std::vector<Group> groups_;
  std::unordered_map<std::uint32_t, std::uint32_t> ident_group_;

  std::vector<Chain> chains_;
  Stats stats_;
};

}  // namespace gretel::hansel
