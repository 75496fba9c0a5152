#include "gretel/anomaly_detector.h"

#include <algorithm>
#include <utility>

#include "util/binio.h"
#include "util/simd.h"

namespace gretel::core {

namespace {

// Two operational triggers for the same API closer than this many events
// are treated as one fault (duplicate REST error relays).  A fixed
// implementation constant, not a knob.
constexpr std::size_t kSuppressEvents = 96;

}  // namespace

AnomalyDetector::AnomalyDetector(const FingerprintDb* db,
                                 const wire::ApiCatalog* catalog,
                                 GretelConfig config, FaultCallback callback)
    : catalog_(catalog),
      config_(config),
      callback_(std::move(callback)),
      detector_(db, catalog, config),
      buffer_(config.alpha()) {
  latency_.set_orphan_timeout_seconds(config_.orphan_timeout_seconds);
}

void AnomalyDetector::on_event(const wire::Event& source) {
  // Push first, stamping the assigned seq in-ring, then read the stored row:
  // the one copy an event costs is the flat assignment into the ring.
  ++stats_.events;
  const auto seq = buffer_.push_stamped(source, stats_.losses_recorded);
  const wire::Event& event = buffer_.at(seq);

  if (event.is_error()) {
    if (event.kind == wire::ApiKind::Rest) {
      ++stats_.rest_errors;
      maybe_trigger_operational(seq, event.api, event.ts);
    } else {
      ++stats_.rpc_errors;  // surfaces via the REST relay; no snapshot
    }
  }

  // Performance faults: per-API latency level shifts.
  if (const auto sample = latency_.observe(event); sample && sample->alarm) {
    PendingSnapshot p;
    p.center = seq;
    p.api = sample->api;
    p.kind = FaultKind::Performance;
    p.triggered_at = event.ts;
    p.alarm = detect::LatencyAlarm{sample->api, *sample->alarm, sample->when};
    pending_.push_back(std::move(p));
  }

  run_ready(/*force=*/false);
}

void AnomalyDetector::maybe_trigger_operational(std::uint64_t seq,
                                                wire::ApiId api,
                                                util::SimTime ts) {
  if (const auto it = last_trigger_.find(api);
      it != last_trigger_.end() &&
      seq - it->second < kSuppressEvents) {
    ++stats_.suppressed_triggers;
    return;
  }
  last_trigger_[api] = seq;

  PendingSnapshot p;
  p.center = seq;
  p.api = api;
  p.kind = FaultKind::Operational;
  p.triggered_at = ts;
  pending_.push_back(std::move(p));
}

void AnomalyDetector::run_ready(bool force) {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (force || buffer_.future_ready(it->center)) {
      run_snapshot(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void AnomalyDetector::run_snapshot(const PendingSnapshot& pending) {
  const auto window = buffer_.locate(pending.center);
  const std::size_t n = window.rows;
  if (n == 0) return;
  const auto center_index = std::min(window.center_index, n - 1);

  // Re-anchor operational faults on the true failing API: "all REST and RPC
  // errors present in the snapshot are together analyzed" (§5.3.1).  An RPC
  // failure is relayed to the dashboard by a generic status GET; the error
  // message immediately preceding the trigger is the real fault.  The scan
  // reads the kSuppressEvents window rows before the trigger straight from
  // the ring, so a suppressed report never freezes its window.
  wire::ApiId anchor = pending.api;
  std::size_t anchor_index = center_index;
  if (pending.kind == FaultKind::Operational) {
    if (const auto seq = buffer_.last_error_before(window, kSuppressEvents)) {
      anchor_index = static_cast<std::size_t>(*seq - window.first_seq);
      anchor = buffer_.at(*seq).api;
    }
    // The relay and the original error resolve to the same anchor; report
    // each fault once.
    if (const auto it = last_report_.find(anchor);
        it != last_report_.end() &&
        pending.center - it->second < kSuppressEvents) {
      ++stats_.suppressed_triggers;
      return;
    }
    last_report_[anchor] = pending.center;
  }

  buffer_.freeze(pending.center, window_cols_);
  auto detection =
      detector_.detect(window_cols_, anchor_index, anchor,
                       pending.kind == FaultKind::Operational);

  FaultReport report;
  report.kind = pending.kind;
  report.offending_api = anchor;
  report.detected_at = buffer_.at(window.first_seq + n - 1).ts;
  report.matched_fingerprints = std::move(detection.matched);
  report.theta = detection.theta;
  report.beta_final = detection.beta_final;
  report.candidates = detection.candidates;
  report.window_start = buffer_.at(window.first_seq).ts;
  report.window_end = report.detected_at;
  report.latency = pending.alarm;
  report.window_losses = window.losses;
  report.degraded_confidence = window.losses > 0;
  // Error events — the only events a report copies: skip from set flag to
  // set flag over the dense error column, then read each hit from the ring.
  const std::uint8_t* err_flags = window_cols_.err.data();
  report.error_events.reserve(simd::count_set_u8(err_flags, n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto hit = simd::find_first_set_u8(err_flags + i, n - i);
    if (hit == simd::npos) break;
    i += hit;
    report.error_events.push_back(buffer_.at(window.first_seq + i));
  }

  if (pending.kind == FaultKind::Operational) {
    ++stats_.operational_reports;
  } else {
    ++stats_.performance_reports;
  }
  if (report.degraded_confidence) ++stats_.degraded_reports;
  if (callback_) callback_(std::move(report));
}

void AnomalyDetector::flush() { run_ready(/*force=*/true); }

void AnomalyDetector::tick(util::SimTime now, double max_report_delay_s) {
  run_ready(/*force=*/false);

  // Deadline forcing: a pending trigger whose future half-window never
  // filled (the stream went quiet) is emitted with the context that did
  // arrive rather than waiting for traffic that may never come.
  if (max_report_delay_s > 0.0) {
    auto it = pending_.begin();
    while (it != pending_.end()) {
      if ((now - it->triggered_at).to_seconds() > max_report_delay_s) {
        ++stats_.forced_reports;
        run_snapshot(*it);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Time-based orphan sweep (the observe-cadence sweep only fires while
  // events flow).
  latency_.sweep_now(now);
}

void AnomalyDetector::save_state(std::string& out) const {
  latency_.save_state(out);
  util::put_u64(out, stats_.events);
  util::put_u64(out, stats_.rest_errors);
  util::put_u64(out, stats_.rpc_errors);
  util::put_u64(out, stats_.operational_reports);
  util::put_u64(out, stats_.performance_reports);
  util::put_u64(out, stats_.suppressed_triggers);
  util::put_u64(out, stats_.losses_recorded);
  util::put_u64(out, stats_.degraded_reports);
  util::put_u64(out, stats_.forced_reports);
}

bool AnomalyDetector::load_state(std::string_view& in) {
  Stats s;
  const bool ok = latency_.load_state(in) && util::get_u64(in, s.events) &&
                  util::get_u64(in, s.rest_errors) &&
                  util::get_u64(in, s.rpc_errors) &&
                  util::get_u64(in, s.operational_reports) &&
                  util::get_u64(in, s.performance_reports) &&
                  util::get_u64(in, s.suppressed_triggers) &&
                  util::get_u64(in, s.losses_recorded) &&
                  util::get_u64(in, s.degraded_reports) &&
                  util::get_u64(in, s.forced_reports);
  if (!ok) {
    reset_state();
    return false;
  }
  stats_ = s;
  return true;
}

void AnomalyDetector::reset_state() {
  latency_.reset();
  stats_ = Stats{};
}

}  // namespace gretel::core
