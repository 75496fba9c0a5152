// The GRETEL analyzer service (Fig. 3): the public facade tying the whole
// pipeline together.
//
//   wire bytes ──CaptureTap──▶ events ──AnomalyDetector──▶ FaultReports
//                                             │
//   collectd metrics ─┐                       ▼
//   dependency watch ─┴─────────────▶ RootCauseEngine ──▶ Diagnoses
//
// The analyzer's external contract is single-threaded and deterministic:
// on_wire() is called in capture order from one thread, faults
// are reported synchronously (on that thread) once their future context
// arrives, and finish() flushes triggers still waiting at end of stream.
// Internally it is serial too: detection, Algorithm 2 and RCA all run on
// the calling thread (docs/ARCHITECTURE.md, "The serial pipeline").
// Metrics must be populated (ResourceMonitor::sample_range) before
// diagnoses that depend on them are read.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gretel/anomaly_detector.h"
#include "gretel/root_cause.h"
#include "net/capture.h"

namespace gretel::core {

class Analyzer {
 public:
  struct Options {
    GretelConfig config;
    bool run_root_cause = true;
    // Route dependency watching through the probed monitoring substrate
    // (deadlines, retries, breakers, flap suppression) instead of direct
    // oracle reads.  With `monitor_chaos` disabled and default knobs the
    // probed path is byte-identical to the oracle.
    bool probed_monitoring = false;
    // Fault injection for the monitoring plane itself (probe drops,
    // delays, timeouts, flipped results, agent crashes, frozen streams).
    // Only consulted when probed_monitoring is set.
    monitor::MonitorChaosConfig monitor_chaos;
    // When set, each Diagnosis is delivered here instead of being
    // accumulated in diagnoses() — the streaming path's bounded
    // alternative to the (unbounded) retained vector.
    std::function<void(const Diagnosis&)> diagnosis_sink;
  };

  Analyzer(const FingerprintDb* db, const wire::ApiCatalog* catalog,
           const stack::Deployment* deployment, Options options);

  // Wire-level entry point: decodes the captured bytes (HTTP / AMQP) and
  // feeds the event pipeline.  Undecodable records are counted and dropped.
  void on_wire(const net::WireRecord& record);

  // on_wire() over a span of records, in order.  Kept for callers that
  // hold captures in chunks (perfbench's batch driver).
  void on_wire_batch(std::span<const net::WireRecord> records) {
    for (const auto& record : records) on_wire(record);
  }

  // Flushes pending snapshots at end of stream.
  void finish();

  // Incremental streaming tick (see AnomalyDetector::tick): emits ready
  // reports, force-emits those pending longer than `max_report_delay_s`
  // (0 = never), sweeps orphans.  `now` is the stream watermark.
  void tick(util::SimTime now, double max_report_delay_s) {
    detector_.tick(now, max_report_delay_s);
  }

  // Telemetry-loss notification from a streaming admission layer (records
  // shed before decode): folded into the detector's window-loss
  // annotation exactly like a quarantined frame.
  void record_ingest_loss(std::uint64_t count) {
    detector_.record_loss(count);
  }

  const std::vector<Diagnosis>& diagnoses() const { return diagnoses_; }
  const AnomalyDetector::Stats& detector_stats() const {
    return detector_.stats();
  }
  const net::TapStats& tap_stats() const { return tap_.stats(); }
  // REST requests the tap is holding for their response (footprint).
  std::size_t tap_open_connections() const {
    return tap_.open_connections();
  }

  // Stale or missing metric series hit by root-cause analysis, summed over
  // every diagnosis emitted (retained or delivered to the sink).
  std::uint64_t stale_series() const { return stale_series_; }

  // Monitoring-side stores feeding the root-cause engine.  Metric samples
  // go straight into metrics() (ResourceMonitor::sample_range, or
  // StreamAnalyzer::on_metric in streaming mode).
  monitor::MetricsStore& metrics() { return metrics_; }
  const monitor::MetricsStore& metrics() const { return metrics_; }

  // The dependency watcher (probe stats and the monitor-chaos audit log
  // live here when probed_monitoring is on).
  const monitor::DependencyWatcher& watcher() const { return watcher_; }

  const GretelConfig& config() const { return detector_.config(); }

  // Request/response pairing and per-API latency state.  Mutable so a
  // streaming front end can arm the in-flight cap.
  detect::LatencyTracker& latency() { return detector_.latency(); }
  const detect::LatencyTracker& latency() const {
    return detector_.latency();
  }

  // Checkpoint support (src/persist/): the learned analyzer state — the
  // anomaly detector's blob (latency baselines/guards and its counters),
  // then the stale-series total as one u64.  The metrics store is
  // deliberately not snapshotted: it is repopulated by the monitor
  // re-attach on restart (ResourceMonitor::sample_range), the same way a
  // fresh analyzer gets its metrics.  load_state expects a freshly
  // constructed analyzer with the same options; on torn input it returns
  // false with the analyzer reset to that state.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

 private:
  net::CaptureTap tap_;
  monitor::MetricsStore metrics_;
  monitor::DependencyWatcher watcher_;
  RootCauseEngine rca_;
  AnomalyDetector detector_;
  bool run_root_cause_;
  std::function<void(const Diagnosis&)> diagnosis_sink_;
  std::vector<Diagnosis> diagnoses_;
  std::uint64_t stale_series_ = 0;
};

}  // namespace gretel::core
