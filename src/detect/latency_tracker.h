// Request/response pairing and per-API latency anomaly detection (§5.3).
//
// "REST latencies are computed by pairing request and response messages
// based on TCP connection metadata, like IP and port, while RPC latencies
// are computed using IP and message identifier that is unique to each pair."
// LatencyTracker does exactly that, maintains a latency time series per API,
// and feeds each series to its own pluggable outlier detector.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/outlier.h"
#include "util/quantile_sketch.h"
#include "util/stats.h"
#include "util/time.h"
#include "wire/message.h"

namespace gretel::detect {

struct LatencyAlarm {
  wire::ApiId api;
  Alarm alarm;          // alarm.value is the latency in milliseconds
  util::SimTime when;   // response timestamp
};

// Degraded-telemetry accounting: what the tracker refused to feed into the
// per-API series because the telemetry substrate lied about time or lost
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
  // Streaming only (series cap armed): retained latency samples trimmed
  // from the front of per-API series.  The P² sketch still saw them — only
  // the raw retained window shrinks.
  std::uint64_t series_trimmed = 0;
};

class LatencyTracker {
 public:
  using Factory = std::function<std::unique_ptr<OutlierDetector>()>;

  explicit LatencyTracker(Factory factory);
  LatencyTracker();  // defaults to the level-shift detector

  // Feeds one captured event.  Responses that close a pending request
  // produce a latency sample; a confirmed anomaly returns a LatencyAlarm.
  // The EventHeader overload is the real implementation — pairing and the
  // level-shift feed read only header fields.
  std::optional<LatencyAlarm> observe(const wire::EventHeader& event);
  std::optional<LatencyAlarm> observe(const wire::Event& event) {
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

  // --- streaming bounds (all off by default; batch behavior is exactly
  // unchanged while they stay off) ---

  // Caps the pending-request table at `cap` entries; the oldest pending
  // request is evicted with accounting (guards().inflight_evicted) when a
  // new one would exceed it.  0 = unbounded.
  void set_inflight_cap(std::size_t cap) { inflight_cap_ = cap; }

  // Retains only the newest latency samples per API: once a series exceeds
  // `cap` points it is compacted to cap/2 (amortized O(1) per sample).
  // Detection is unaffected — the level-shift detector owns its own
  // bounded window; only the retained raw series shrinks.  0 = unbounded.
  void set_series_cap(std::size_t cap) { series_cap_ = cap; }

  // Feeds every admitted latency sample into a constant-memory P² sketch
  // per API (full-history baseline quantiles that survive series trims).
  void set_sketch_enabled(bool on) { sketch_enabled_ = on; }

  // Latency series recorded so far for an API (milliseconds).
  const util::TimeSeries* series(wire::ApiId api) const;

  // P² baseline sketch for an API; null until a sample was admitted with
  // the sketch enabled.
  const util::QuantileSketch* sketch(wire::ApiId api) const;

  // Requests that never saw a response (diagnostic).
  std::size_t pending() const {
    return pending_rest_.size() + pending_rpc_.size();
  }
  std::uint64_t samples() const { return samples_; }

  // Footprint accounting for the streaming soak assertions.
  std::size_t series_points() const;
  std::size_t inflight_queue() const {
    return inflight_fifo_.size() - inflight_head_;
  }

  // Checkpoint support (src/persist/): serializes the dynamic state —
  // pending request maps, per-API series/detector/sketch, in-flight FIFO,
  // guard counters — in deterministic (sorted-key) order.  The knobs
  // (orphan timeout, caps, sketch enable) are config, not state: restore
  // re-arms them from GretelConfig before calling load_state.  save_state
  // never mutates the tracker; load_state replaces all dynamic state, or
  // resets the tracker and returns false on torn/malformed input or a
  // detector-type mismatch against this tracker's factory.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

  // Drops all dynamic state (the state load_state replaces), keeping the
  // knobs: the tracker is left as freshly constructed and armed.
  void reset();

 private:
  struct PerApi {
    util::TimeSeries series;
    std::unique_ptr<OutlierDetector> detector;
    util::QuantileSketch sketch;
  };

  // Insertion-order record for the in-flight cap.  Entries are never
  // eagerly removed on pairing (that would need a per-map index); instead
  // an entry is "stale" when its key no longer maps to its timestamp, and
  // stale entries are skipped during eviction and compacted lazily.
  struct InflightEntry {
    std::uint64_t key;
    util::SimTime ts;
    bool rpc;
  };

  PerApi& per_api(wire::ApiId api);
  void sweep_orphans(util::SimTime now);
  bool stale(const InflightEntry& e) const;
  void note_inflight(std::uint64_t key, util::SimTime ts, bool rpc);

  Factory factory_;
  std::unordered_map<std::uint32_t, util::SimTime> pending_rest_;  // conn_id
  std::unordered_map<std::uint64_t, util::SimTime> pending_rpc_;   // msg_id
  std::unordered_map<wire::ApiId, PerApi> state_;
  // FIFO as vector + head index.  Entries before inflight_head_ are
  // consumed; compaction reclaims them together with stale live entries.
  std::vector<InflightEntry> inflight_fifo_;
  std::size_t inflight_head_ = 0;
  std::uint64_t samples_ = 0;
  double orphan_timeout_seconds_ = 0.0;
  std::uint32_t observes_since_sweep_ = 0;
  std::size_t inflight_cap_ = 0;
  std::size_t series_cap_ = 0;
  bool sketch_enabled_ = false;
  LatencyGuardStats guards_;
};

}  // namespace gretel::detect
