// Continuous streaming front end for the GRETEL analyzer.
//
//   producer ──offer()──▶ [bounded source ring] ──tick──▶ Analyzer
//                │  credits() / shed                │
//                └── backpressure ──────────────────┴──▶ StreamReports
//
// Batch GRETEL ingests a finite capture and reports at finish(); the
// StreamAnalyzer runs the same pipeline against an unbounded stream with
// three hard guarantees (docs/ARCHITECTURE.md, "Streaming mode"):
//
//   1. Bounded memory.  Every stateful stage is capped: the source ring
//      (StreamOptions::source_ring), the pending-request table
//      (inflight_cap), the tap's open-connection table (REST requests
//      awaiting a response, expired after net::kOpenConnectionHorizon),
//      the metrics store (retention of 2 × detect::kBaselineSeconds,
//      which covers Is_Anomalous's past-only baseline plus the window and
//      report delay) and the retained report ring (report_cap); per-API
//      latency state is the level-shift detector's fixed baseline
//      window.  footprint() itemizes the state and the soak test asserts
//      the ceiling is flat under sustained overload.
//
//   2. Explicit backpressure with exact shed accounting.  offer() admits a
//      record or sheds one under shed_policy; credits() tells a
//      cooperating producer how many records the ring will take without
//      shedding (0 while the gate is closed — it reopens at half
//      occupancy, giving hysteresis instead of flapping at the rim).
//      Every shed record is attributed to its exact stream position via
//      the same window-loss annotation a quarantined frame gets, so
//      reports spanning a shed gap carry degraded confidence and
//      offered == ingested + shed + queued() holds at all times.
//
//   3. Bounded report latency.  advance_to(watermark) runs a detection
//      tick each time the watermark crosses a tick_ms boundary: queued
//      records are drained into the analyzer, ready reports are emitted,
//      pending triggers older than max_report_delay_s are force-emitted
//      with the context that did arrive, and idle-stream orphans are
//      reaped.  Each report is stamped with its emission tick and the
//      trigger-to-emission delay (bench/bench_stream_latency.cpp measures
//      the fault-injection-to-first-report distribution on top of this).
//
// Determinism caveat: streaming reports are tick-quantized and, under the
// in-flight cap or shed pressure, depend on arrival timing — the batch
// byte-identity contract applies to batch mode only.  A plain
// core::Analyzer never sees these caps: only this class arms them, on the
// analyzer it owns.
//
// Thread contract: single-threaded, like the Analyzer facade it wraps —
// one producer thread calls offer()/on_metric()/advance_to()/finish().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gretel/analyzer.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "util/slot_ring.h"

namespace gretel::stream {

// Streaming admission policy when the bounded source ring is full and the
// producer keeps pushing (i.e. it ignores the credit scheme).  Either way
// every shed record is accounted exactly and attributed as a window loss at
// the position it would have occupied, so downstream reports carry the
// degraded-confidence annotation.
enum class StreamShedPolicy : std::uint8_t {
  // Refuse the new record (freshest data is lost; queued context survives).
  DropNewest,
  // Evict the oldest queued record to admit the new one (context is lost;
  // the stream stays current — the usual choice for live detection).
  DropOldest,
};

// The stream's own knobs: cadence, bounded-state caps and durability.
// Only StreamAnalyzer reads them; the analyzer it wraps keeps its
// core::GretelConfig.  Declared at namespace scope so it can be a `= {}`
// default argument (GCC rejects one for an aggregate nested in the class
// that declares the default).  Documented as: default · effect.
struct StreamOptions {
  // 250 · detection cadence in simulated ms: once per tick the stream
  // drains its ring, emits ready and overdue reports and sweeps orphans.
  double tick_ms = 250.0;

  // 8192 · source-ring capacity in records.  Credits equal the free
  // capacity; once the ring fills they stay at zero until it drains to
  // half, so a cooperating producer never sheds.
  std::size_t source_ring = 8192;

  // DropOldest · what admission does when the ring is full and the
  // producer pushes anyway; every shed record is accounted as a window
  // loss in place.
  StreamShedPolicy shed_policy = StreamShedPolicy::DropOldest;

  // 4096 · cap on the in-flight (request-awaiting-response) table (floor
  // 64; 0 = uncapped).  Past it the oldest pending request is evicted with
  // accounting (inflight_evicted) instead of growing the map.
  std::size_t inflight_cap = 4096;

  // 256 · newest reports kept for recent_reports(); older ones are evicted
  // with accounting.  The sink sees every report regardless.
  std::size_t report_cap = 256;

  // 2.0 · seconds after which a trigger whose future half-window has not
  // filled (the stream went quiet) is force-emitted with the context that
  // did arrive.  0 = never force.
  double max_report_delay_s = 2.0;

  // --- durability: read only once enable_durability() or restore() arms
  // a persistence directory. ---

  // 5.0 · stream seconds between checkpoints, taken at tick boundaries; a
  // crash regresses at most this much learned baseline.  Must be at least
  // one tick — a sub-tick cadence can never fire.
  double checkpoint_interval_s = 5.0;

  // 4096 · journal records per WAL segment.  Smaller segments bound the
  // replay scan after a crash; larger ones reduce file churn.
  std::size_t journal_segment_records = 4096;

  // One itemized, human-readable error per nonsensical value (empty =
  // valid), like core::GretelConfig::validate().
  std::vector<std::string> validate() const;
};

// One emitted diagnosis, stamped with its position in stream time.
struct StreamReport {
  core::Diagnosis diagnosis;
  // Tick (1-based) whose drain emitted the report; 0 for reports emitted
  // by finish() after the last tick.
  std::uint64_t tick = 0;
  // Watermark at emission.
  util::SimTime emitted_at;
  // Emission lag behind the detection timestamp (the last event of the
  // frozen window): how long the report waited for future context plus
  // tick quantization.  Clamped at 0 (a report can freeze a window whose
  // tail arrived ahead of the watermark).
  double report_delay_ms = 0.0;
};

// Flow accounting.  Invariant (asserted by the soak test):
//   offered == ingested + shed + queued().
struct StreamCounters {
  std::uint64_t offered = 0;    // records presented by the producer
  std::uint64_t ingested = 0;   // records drained into the analyzer
  std::uint64_t shed = 0;       // records dropped at admission, accounted
  std::uint64_t shed_episodes = 0;  // gate-open → gate-closed transitions
  std::uint64_t ticks = 0;
  std::uint64_t reports = 0;          // total reports emitted
  std::uint64_t reports_evicted = 0;  // evicted from the retained ring
  std::uint64_t metrics = 0;          // metric samples forwarded
};

// Itemized live state, for the bounded-memory soak assertions and the
// bench's peak-state tripwire.  approx_bytes() is an estimate built from
// element counts × element sizes (strings inside events/reports are
// counted for the source ring, where they dominate, and approximated
// elsewhere); its value is in being monotone in the actual footprint.
struct StateFootprint {
  std::size_t source_ring_records = 0;
  std::size_t source_ring_bytes = 0;  // queued wire payload bytes
  std::size_t window_capacity = 0;    // dual-buffer slots (fixed: 2α)
  std::size_t pending_requests = 0;   // latency pending-table entries
  std::size_t tap_connections = 0;    // tap open-connection entries
  std::size_t inflight_queue = 0;     // in-flight FIFO bookkeeping entries
  std::size_t metric_points = 0;      // retained metric samples
  std::size_t reports_retained = 0;

  std::size_t approx_bytes() const;
};

// Outcome of StreamAnalyzer::restore() — what survived the crash.
//
// Recovery invariant (asserted by the kill-point campaign): at most one
// checkpoint interval of learned baseline regresses, zero journaled
// reports are lost, and the flow ledger re-reconciles after restart
// (offered == ingested + shed with an empty ring at every checkpoint).
struct RecoveryInfo {
  bool recovered = false;  // a valid checkpoint was loaded and applied
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t checkpoint_tick = 0;
  // Checkpoint files skipped because they failed CRC/decode (torn write
  // artifacts, or a file in an older layout such as GRTCKP01); recovery
  // fell back to the next-newest valid one.
  std::size_t corrupt_checkpoints_skipped = 0;
  // Torn journal-tail records truncated on open (never fsync-acknowledged,
  // so nothing durable was lost).
  std::size_t journal_records_truncated = 0;
  // The checkpoint belonged to a different fingerprint DB (hot swap or
  // retrain between checkpoint and crash): learned state cold-started
  // rather than grafting baselines onto mismatched APIs.
  bool db_mismatch = false;
  // Journaled reports emitted after the checkpoint: durable and already
  // delivered pre-crash, so they are replayed here (and their sequence
  // numbers resumed), not re-delivered to the sink.
  std::vector<persist::JournalRecord> replayed;
};

class StreamAnalyzer {
 public:
  using ReportSink = std::function<void(const StreamReport&)>;

  // Wraps an Analyzer built from `options` and arms the stream's
  // bounded-state caps (in-flight cap, metric retention) on it.  `sink`,
  // when set, sees every report at emission; the newest stream.report_cap
  // reports are also retained in recent_reports() either way.
  StreamAnalyzer(const core::FingerprintDb* db,
                 const wire::ApiCatalog* catalog,
                 const stack::Deployment* deployment,
                 core::Analyzer::Options options, ReportSink sink = {},
                 StreamOptions stream = {});

  StreamAnalyzer(const StreamAnalyzer&) = delete;
  StreamAnalyzer& operator=(const StreamAnalyzer&) = delete;

  // Offers one captured record.  Returns true if it was queued; false if
  // it was shed (DropNewest) — under DropOldest the new record is always
  // queued and the return still reports whether *shedding* occurred via
  // counters().  Never blocks.
  bool offer(const net::WireRecord& record);

  // Admission credits: how many records offer() will queue without
  // shedding.  0 while the shed gate is closed (ring hit capacity and has
  // not yet drained to half).  A cooperating producer paces itself on
  // this; a non-cooperating one just gets the shed policy.
  std::size_t credits() const;

  // Metric samples bypass the ring (they are scalar, and the metrics
  // store's retention bounds them) and go straight into the analyzer's
  // metrics().
  void on_metric(wire::NodeId node, net::ResourceKind kind,
                 double t_seconds, double value);

  // Advances the stream watermark, running one detection tick per
  // tick_ms boundary crossed.  The first call (or offer) anchors
  // the tick grid at the watermark's grid floor, so a capture starting at
  // t=600s does not replay 2400 empty ticks from the epoch.
  void advance_to(util::SimTime watermark);

  // End of stream: drains everything still queued, attributes trailing
  // shed losses, and flushes the analyzer (emitting reports whose future
  // context never arrived).  Final reports carry tick = 0.
  void finish();

  const StreamCounters& counters() const { return counters_; }
  std::size_t queued() const { return ring_.size(); }
  util::SimTime watermark() const { return watermark_; }
  bool gate_closed() const { return gate_closed_; }

  // Newest retained reports (bounded by report_cap; older ones
  // were delivered to the sink and evicted, counters().reports_evicted).
  const std::deque<StreamReport>& recent_reports() const { return recent_; }

  // Live state itemization and the high-water mark of approx_bytes()
  // observed at tick boundaries (quiescent points).
  StateFootprint footprint();
  std::size_t peak_state_bytes() const { return peak_state_bytes_; }

  // The wrapped pipeline; its counters stay with their owners
  // (tap_stats(), detector_stats(), latency().guard_stats(),
  // watcher().probe_stats()).
  core::Analyzer& analyzer() { return analyzer_; }
  const core::Analyzer& analyzer() const { return analyzer_; }

  // ---- Durability (persist/) -------------------------------------------
  //
  // When armed, every report is fsync'd to the append-only journal BEFORE
  // the sink sees it (fsync-before-acknowledge), and a GRTCKP02 checkpoint
  // of the learned analyzer state + flow ledger is written atomically every
  // checkpoint_interval_s of stream time (at a tick boundary, where the
  // ring is drained and the ledger reconciles with queued() == 0).
  // Durability never changes what is emitted: save paths are strictly
  // non-mutating, so a crash-free run with checkpointing on produces
  // byte-identical reports to one with it off.  The one exception is an
  // I/O failure: a report whose journal append is not acknowledged is not
  // emitted (neither the sink nor counters().reports sees it).

  // Arms checkpoints + report journal under `dir` (created if missing).
  // New checkpoints number past any already in `dir`.  Call before
  // offering records.  Returns false if the journal cannot be opened; the
  // analyzer stays usable (durability off).
  bool enable_durability(const std::string& dir);
  bool durable() const { return journal_.has_value(); }
  const std::string& persist_dir() const { return persist_dir_; }

  // Sequence the next journaled report will get (0 when not durable):
  // exactly how many reports are on disk.
  std::uint64_t journal_next_seq() const {
    return journal_ ? journal_->next_seq() : 0;
  }

  // Writes a checkpoint of the current state immediately (used by finish()
  // and the tools' signal handlers).  Drains the ring first so the
  // snapshot is quiescent — the persisted ledger reconciles with
  // queued() == 0 no matter where between offers the call lands.  No-op
  // returning false when durability is off or the write fails (any write,
  // fsync or rename; journal segments are then not purged).
  bool checkpoint_now();

  // Recovery: loads the newest valid checkpoint under `dir` (falling back
  // across corrupt ones), restores the learned analyzer state, flow
  // ledger, watermark and tick grid, truncates the journal's torn tail,
  // and replays the journaled report tail into RecoveryInfo (not the
  // sink — those reports were already delivered before the crash).  The
  // returned analyzer resumes durable.  With no usable checkpoint on disk
  // (none, all corrupt, or a different fingerprint DB) this degenerates to
  // a cold start — a freshly constructed analyzer — with durability armed.
  // Returns nullptr only when the journal cannot be opened at all.
  static std::unique_ptr<StreamAnalyzer> restore(
      const core::FingerprintDb* db, const wire::ApiCatalog* catalog,
      const stack::Deployment* deployment, core::Analyzer::Options options,
      const std::string& dir, ReportSink sink = {},
      RecoveryInfo* info = nullptr, StreamOptions stream = {});

 private:
  struct Slot {
    net::WireRecord rec;
    // Records shed immediately before this one (exact stream position for
    // the window-loss annotation).
    std::uint64_t losses_before = 0;
  };

  static core::Analyzer::Options prepare(core::Analyzer::Options options,
                                         StreamAnalyzer* self);
  util::SimTime grid_floor(util::SimTime t) const;
  // Opens the journal under `dir` (truncating a torn tail; the dropped
  // record count goes to `truncated` when set), stamps the DB identity and
  // lists the checkpoints already in `dir`, numbering new ones past them.
  bool arm_durability(const std::string& dir, std::size_t* truncated);
  void on_diagnosis(const core::Diagnosis& d);
  void drain_ring();
  void run_tick();

  const core::FingerprintDb* db_;
  const wire::ApiCatalog* catalog_;
  StreamOptions opts_;
  util::SimDuration tick_len_;
  ReportSink sink_;
  core::Analyzer analyzer_;      // last: its sink lambda captures `this`

  // Source ring: slots are reused, and the ring grows only to its
  // high-water depth (never past source_ring).
  util::SlotRing<Slot> ring_;
  std::size_t ring_bytes_ = 0;   // queued rec.bytes payload total
  // Shed losses not yet anchored to a queued record: attributed before
  // the next admitted record, or at finish() if none follows.
  std::uint64_t tail_losses_ = 0;
  bool gate_closed_ = false;
  bool started_ = false;
  bool finishing_ = false;
  util::SimTime watermark_;
  StreamCounters counters_;
  std::deque<StreamReport> recent_;
  std::size_t peak_state_bytes_ = 0;

  // Durability state; armed by enable_durability() / restore().
  std::string persist_dir_;
  std::optional<persist::ReportJournal> journal_;
  std::uint64_t checkpoint_seq_ = 0;  // seq the next checkpoint file gets
  // Checkpoint seqs on disk, newest first: listed once when durability is
  // armed, then kept current by persist::write_checkpoint.
  std::vector<std::uint64_t> checkpoint_seqs_;
  std::size_t last_checkpoint_bytes_ = 0;  // sizes the next encode buffer
  util::SimTime last_checkpoint_at_;  // watermark of the last checkpoint
  bool checkpoint_anchored_ = false;  // cadence anchor set (first tick)
  std::uint64_t db_catalog_hash_ = 0;  // identity of the DB we snapshot for
  std::uint32_t db_content_crc_ = 0;
};

}  // namespace gretel::stream
