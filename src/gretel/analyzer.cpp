#include "gretel/analyzer.h"

#include <algorithm>

#include "util/binio.h"

namespace gretel::core {

namespace {

monitor::DependencyWatcher make_watcher(const stack::Deployment* deployment,
                                        const Analyzer::Options& options) {
  if (!options.probed_monitoring)
    return monitor::DependencyWatcher(deployment);
  // Default probe deadlines, retries, backoff, breaker and hysteresis
  // (monitor::ProbeConfig); only the jitter seed follows the chaos plan.
  monitor::ProbeConfig probe;
  probe.seed = options.monitor_chaos.seed;
  return monitor::DependencyWatcher(deployment, probe, options.monitor_chaos);
}

}  // namespace

Analyzer::Analyzer(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                   const stack::Deployment* deployment, Options options)
    : tap_(catalog, deployment->service_by_port(),
           GretelConfig::decode_arena_kb * 1024),
      watcher_(make_watcher(deployment, options)),
      rca_(db, catalog, deployment, &metrics_, &watcher_,
           RootCauseEngine::Options::from(options.config)),
      detector_(db, catalog, options.config,
                [this](const FaultReport& fault) {
                  Diagnosis d;
                  d.fault = fault;
                  if (run_root_cause_) d.root_cause = rca_.analyze(fault);
                  if (diagnosis_sink_) {
                    sink_stale_series_ += d.root_cause.stale_series;
                    diagnosis_sink_(d);
                  } else {
                    diagnoses_.push_back(std::move(d));
                  }
                }),
      run_root_cause_(options.run_root_cause),
      diagnosis_sink_(std::move(options.diagnosis_sink)) {}

void Analyzer::on_wire(const net::WireRecord& record) {
  const auto failures_before = tap_.stats().decode_failures;
  auto event = tap_.decode(record);
  // A quarantined frame is a hole in the stream the detector will window
  // over: annotate the loss so reports spanning it carry degraded
  // confidence.  (unknown_api records are deliberate filtering, not loss.)
  if (const auto delta = tap_.stats().decode_failures - failures_before)
    detector_.record_loss(delta);
  if (event) detector_.on_event(*event);
}

void Analyzer::on_event(const wire::Event& event) {
  detector_.on_event(event);
}

void Analyzer::on_wire_batch(std::span<const net::WireRecord> records) {
  const std::size_t chunk =
      std::max<std::size_t>(1, detector_.config().ingest_batch);
  std::size_t i = 0;
  while (i < records.size()) {
    const auto take = std::min(chunk, records.size() - i);
    event_scratch_.clear();
    for (std::size_t k = 0; k < take; ++k) {
      // decode() resets the tap arena per record, but the Event copies out
      // everything it keeps, so accumulating across resets is safe.
      const auto failures_before = tap_.stats().decode_failures;
      auto event = tap_.decode(records[i + k]);
      if (const auto delta =
              tap_.stats().decode_failures - failures_before) {
        // Keep loss attribution at the exact stream position: hand the
        // events decoded so far to the detector before recording the loss,
        // so the per-record and batched paths annotate windows identically.
        detector_.on_events(event_scratch_);
        event_scratch_.clear();
        detector_.record_loss(delta);
      }
      if (event) event_scratch_.push_back(std::move(*event));
    }
    detector_.on_events(event_scratch_);
    i += take;
  }
}

void Analyzer::on_events(std::span<const wire::Event> events) {
  detector_.on_events(events);
}

void Analyzer::on_metric(wire::NodeId node, net::ResourceKind kind,
                         double t_seconds, double value) {
  metrics_.record(node, kind, t_seconds, value);
  resource_stream_.observe(node, kind, t_seconds, value);
}

void Analyzer::finish() { detector_.flush(); }

monitor::PipelineHealthCounters Analyzer::health() const {
  const auto& tap = tap_.stats();
  const auto& det = detector_.stats();
  monitor::PipelineHealthCounters h;
  h.frames_decoded = tap.decoded;
  h.frames_quarantined = tap.decode_failures;
  h.frames_unknown_api = tap.unknown_api;
  h.frames_non_monotonic = tap.non_monotonic;
  h.losses_recorded = det.losses_recorded;
  h.orphans_reaped = det.orphans_reaped;
  h.latency_clamped = det.latency_clamped;
  h.latency_rejected = det.latency_rejected;
  h.stale_freezes = det.stale_freezes;
  h.degraded_reports = det.degraded_reports;
  // Monitoring-plane health: the watcher's probe counters plus the
  // per-diagnosis staleness annotations the root-cause engine produced.
  const auto probe = watcher_.probe_stats();
  h.probe_attempts = probe.attempts;
  h.probe_retries = probe.retries;
  h.probe_timeouts = probe.timeouts;
  h.probe_drops = probe.drops;
  h.breaker_trips = probe.breaker_trips;
  h.breaker_skips = probe.breaker_skips;
  h.flap_suppressed = probe.flap_suppressed;
  h.probe_budget_exhausted = probe.budget_exhausted;
  h.stale_series = sink_stale_series_;
  for (const auto& d : diagnoses_) h.stale_series += d.root_cause.stale_series;
  // Streaming bounds.
  h.inflight_evicted = det.inflight_evicted;
  return h;
}

void Analyzer::save_state(std::string& out) const {
  detector_.save_state(out);
  resource_stream_.save_state(out);
  util::put_u64(out, sink_stale_series_);
}

bool Analyzer::load_state(std::string_view& in) {
  if (!detector_.load_state(in)) return false;
  if (!resource_stream_.load_state(in)) return false;
  std::uint64_t stale = 0;
  if (!util::get_u64(in, stale)) return false;
  sink_stale_series_ = stale;
  return true;
}

}  // namespace gretel::core
