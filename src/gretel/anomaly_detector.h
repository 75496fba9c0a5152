// The anomaly detector (§5.3): the online front half of the analyzer.
//
// Consumes decoded events at line rate, maintaining the dual-buffer sliding
// window.  Operational faults: REST error statuses trigger snapshots (RPC
// errors are counted but do not trigger — they surface in REST relays,
// §5.3.1 "Improving precision").  Performance faults: the latency tracker's
// level-shift alarms trigger snapshots without fingerprint truncation.
// After a trigger, the detector waits for the future α/2 messages, freezes
// the window between the dual buffer's two pointers, runs Algorithm 2, and
// emits a FaultReport through the callback.
//
// Threading: serial.  Each event is processed inline on the calling thread
// (error scan, latency pairing + level shift, snapshot, Algorithm 2);
// on_event()/flush() must be called from one thread, and callbacks fire on
// that thread.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "detect/latency_tracker.h"
#include "gretel/config.h"
#include "gretel/op_detector.h"
#include "gretel/report.h"
#include "gretel/window.h"

namespace gretel::core {

class AnomalyDetector {
 public:
  // Receives each report by rvalue so the consumer can keep it without a
  // copy; a callback taking `const FaultReport&` binds as well.
  using FaultCallback = std::function<void(FaultReport&&)>;

  AnomalyDetector(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                  GretelConfig config, FaultCallback callback);

  // Feeds one decoded event; may synchronously emit fault reports for
  // earlier triggers whose future context just completed.
  void on_event(const wire::Event& event);

  // Runs any triggers still waiting for future context (end of stream).
  void flush();

  // Incremental streaming tick (stream::StreamOptions::tick_ms cadence):
  // emits every report whose future context is ready — without ending the
  // stream — then force-emits pending triggers older than
  // `max_report_delay_s` (a fault followed by silence still reports within
  // a bounded delay; 0 = never force) and time-sweeps the orphan reaper (an
  // idle stream never reaches the observe-cadence sweep).  `now` is the
  // stream watermark in sim time.  Batch callers never need this.
  void tick(util::SimTime now, double max_report_delay_s);

  // Telemetry-loss notification from the ingestion layer: `count` frames
  // between the previous event and the next one were lost before decoding
  // (quarantined as malformed, dropped by a lossy tap, ...).  Folded into
  // the running loss count that annotates frozen windows, so reports whose
  // snapshot spans the gap carry degraded_confidence.
  void record_loss(std::uint64_t count) { stats_.losses_recorded += count; }

  // The counts this detector increments itself.  The latency guards
  // (orphans, clamped/rejected samples, in-flight evictions) live in
  // latency().guard_stats().
  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t rest_errors = 0;
    std::uint64_t rpc_errors = 0;
    std::uint64_t operational_reports = 0;
    std::uint64_t performance_reports = 0;
    std::uint64_t suppressed_triggers = 0;
    std::uint64_t losses_recorded = 0;      // record_loss totals
    std::uint64_t degraded_reports = 0;     // reports with window losses
    std::uint64_t forced_reports = 0;       // streaming: past the deadline
  };
  const Stats& stats() const { return stats_; }

  const GretelConfig& config() const { return config_; }

  // Request/response pairing and per-API latency state.
  detect::LatencyTracker& latency() { return latency_; }
  const detect::LatencyTracker& latency() const { return latency_; }

  // Checkpoint support (src/persist/): serializes the *learned* state —
  // the latency tracker blob (level-shift baselines, pending pairings,
  // orphan clocks, guard counts), then the nine Stats counters as u64 in
  // declaration order.  The dual buffer, pending snapshots and per-API
  // suppression maps are window-local transients spanning at most α
  // messages; they are deliberately not checkpointed (the recovery
  // invariant already allows one checkpoint interval of context to
  // regress, and seq numbers restart with the new window).  load_state
  // expects a freshly constructed detector with the same config; on torn
  // input it returns false with the detector left at its constructed
  // state.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

  // Drops the state load_state replaces (tracker and stats), leaving the
  // detector as constructed.
  void reset_state();

 private:
  struct PendingSnapshot {
    std::uint64_t center = 0;   // seq of the triggering message
    wire::ApiId api;
    FaultKind kind = FaultKind::Operational;
    util::SimTime triggered_at;
    std::optional<detect::LatencyAlarm> alarm;
  };

  void maybe_trigger_operational(std::uint64_t seq, wire::ApiId api,
                                 util::SimTime ts);
  void run_ready(bool force);
  void run_snapshot(const PendingSnapshot& pending);

  const wire::ApiCatalog* catalog_;
  GretelConfig config_;
  FaultCallback callback_;
  OperationDetector detector_;
  DualBuffer buffer_;
  // Columnar (SoA) view of the current frozen snapshot — scratch reused
  // across freezes so steady-state snapshotting allocates nothing.  The
  // anchor re-scan, the error-event collection and Alg. 2 all read these
  // columns through the util/simd.h kernels.
  WindowColumns window_cols_;
  detect::LatencyTracker latency_;
  std::vector<PendingSnapshot> pending_;
  // Last trigger sequence per API, for duplicate-relay suppression.
  std::unordered_map<wire::ApiId, std::uint64_t> last_trigger_;
  // Last report sequence per *anchor* API: the relay and the original error
  // resolve to the same anchor and must yield one report.
  std::unordered_map<wire::ApiId, std::uint64_t> last_report_;
  Stats stats_;
};

}  // namespace gretel::core
