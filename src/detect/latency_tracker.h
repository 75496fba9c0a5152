// Request/response pairing and per-API latency anomaly detection (§5.3).
//
// "REST latencies are computed by pairing request and response messages
// based on TCP connection metadata, like IP and port, while RPC latencies
// are computed using IP and message identifier that is unique to each pair."
// LatencyTracker does exactly that and feeds each API's latency stream to
// its own level-shift detector.  The detector's bounded baseline window is
// the only per-API latency state: admitted samples are handed back to the
// caller, never stored.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/level_shift.h"
#include "util/time.h"
#include "wire/message.h"

namespace gretel::detect {

struct LatencyAlarm {
  wire::ApiId api;
  Alarm alarm;          // alarm.value is the latency in milliseconds
  util::SimTime when;   // response timestamp
};

// One admitted request/response pairing.
struct LatencySample {
  wire::ApiId api;
  util::SimTime when;           // response timestamp
  double latency_ms = 0.0;      // after the negative-gap clamp
  std::optional<Alarm> alarm;   // a level shift this sample confirmed
};

// Degraded-telemetry accounting: what the tracker refused to feed into the
// per-API detectors because the telemetry substrate lied about time or lost
// the closing half of an exchange.
struct LatencyGuardStats {
  // Negative request→response gaps (capture clock skew between the tapped
  // nodes); the sample is clamped to 0 ms rather than poisoning the
  // baseline with a nonsense level.
  std::uint64_t clamped_negative = 0;
  // NaN / infinite gaps (should be impossible with integer sim time, but
  // the detectors also consume operator-supplied series); rejected.
  std::uint64_t rejected_nonfinite = 0;
  // Requests whose response never arrived within the orphan timeout: swept
  // from the pending maps, or rejected when the response finally limped in
  // past the deadline.  Each lost exchange is counted exactly once.
  std::uint64_t orphans_reaped = 0;
  // Streaming only (in-flight cap armed): oldest pending requests evicted
  // to hold the table under the cap when losses outpace the orphan reaper.
  std::uint64_t inflight_evicted = 0;
};

class LatencyTracker {
 public:
  // Every API's detector is built from `params` (production uses the
  // defaults; tests shorten the warm-up).
  explicit LatencyTracker(LevelShiftParams params = {}) : params_(params) {}

  // Feeds one captured event.  A response that closes a pending request
  // and passes the guards returns the admitted sample, carrying the alarm
  // when it confirmed a level shift; everything else returns nullopt.  The
  // EventHeader overload is the real implementation — pairing and the
  // level-shift feed read only header fields.
  std::optional<LatencySample> observe(const wire::EventHeader& event);
  std::optional<LatencySample> observe(const wire::Event& event) {
    return observe(wire::EventHeader(event));
  }

  // Orphan-request reaper (0 = off).  Whether a pairing is admitted depends
  // only on the response−request gap vs the timeout — never on sweep
  // timing — so the periodic sweep merely reclaims the pending-map memory
  // a lossy tap would otherwise leak.
  void set_orphan_timeout_seconds(double seconds) {
    orphan_timeout_seconds_ = seconds;
  }
  const LatencyGuardStats& guard_stats() const { return guards_; }

  // Time-based sweep for streaming mode.  The observe-cadence sweep above
  // only fires while events flow; an idle stream would never reap its
  // orphans.  The stream tick calls this with the watermark instead.
  // Admission is still decided at pairing time, so output is unaffected.
  void sweep_now(util::SimTime now);

  // --- streaming bound (off by default; batch behavior is exactly
  // unchanged while it stays off) ---

  // Caps the pending-request table at `cap` entries; the oldest pending
  // request is evicted with accounting (guards().inflight_evicted) when a
  // new one would exceed it.  0 = unbounded.
  void set_inflight_cap(std::size_t cap) { inflight_cap_ = cap; }

  // Requests that never saw a response (diagnostic).
  std::size_t pending() const {
    return pending_rest_.size() + pending_rpc_.size();
  }
  std::uint64_t samples() const { return samples_; }

  // Footprint accounting for the streaming soak assertions.
  std::size_t inflight_queue() const {
    return inflight_fifo_.size() - inflight_head_;
  }

  // Checkpoint support (src/persist/): serializes the dynamic state in
  // deterministic (sorted-key) order, each section a u32 count and its
  // entries:
  //   pending REST (u32 conn, i64 ts) · pending RPC (u64 msg, i64 ts) ·
  //   per-API (u16 api, LevelShiftDetector blob) ·
  //   in-flight FIFO (u64 key, i64 ts, u8 rpc)
  // then samples (u64), observes since sweep (u32) and the four guard
  // counters (u64, in LatencyGuardStats order).  The knobs (detector
  // params, orphan timeout, in-flight cap) are config, not state: restore
  // re-arms them from GretelConfig before calling load_state.  save_state
  // never mutates the tracker; load_state replaces all dynamic state, or
  // resets the tracker and returns false on torn/malformed input.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

  // Drops all dynamic state (the state load_state replaces), keeping the
  // knobs: the tracker is left as freshly constructed and armed.
  void reset();

 private:
  // Insertion-order record for the in-flight cap.  Entries are never
  // eagerly removed on pairing (that would need a per-map index); instead
  // an entry is "stale" when its key no longer maps to its timestamp, and
  // stale entries are skipped during eviction and compacted lazily.
  struct InflightEntry {
    std::uint64_t key;
    util::SimTime ts;
    bool rpc;
  };

  void sweep_orphans(util::SimTime now);
  bool stale(const InflightEntry& e) const;
  void note_inflight(std::uint64_t key, util::SimTime ts, bool rpc);

  LevelShiftParams params_;
  std::unordered_map<std::uint32_t, util::SimTime> pending_rest_;  // conn_id
  std::unordered_map<std::uint64_t, util::SimTime> pending_rpc_;   // msg_id
  std::unordered_map<wire::ApiId, LevelShiftDetector> detectors_;
  // FIFO as vector + head index.  Entries before inflight_head_ are
  // consumed; compaction reclaims them together with stale live entries.
  std::vector<InflightEntry> inflight_fifo_;
  std::size_t inflight_head_ = 0;
  std::uint64_t samples_ = 0;
  double orphan_timeout_seconds_ = 0.0;
  std::uint32_t observes_since_sweep_ = 0;
  std::size_t inflight_cap_ = 0;
  LatencyGuardStats guards_;
};

}  // namespace gretel::detect
