#include "gretel/analyzer.h"

#include <algorithm>
#include <utility>

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

// The checkpoint section of the retired per-(node, resource) level-shift
// stream: a u32 count of (u32 key, detector name, detector blob) entries,
// a u32 count of alarm records (u8 node, u8 kind, four f64, u8 direction),
// and a u64 sample count.  Skipped unread, with bounds checks.
constexpr std::uint32_t kMaxRetiredElems = 1u << 24;
constexpr std::size_t kRetiredAlarmBytes = 2 + 4 * 8 + 1;

bool skip_retired_resource_stream(std::string_view& in) {
  std::uint32_t n = 0;
  if (!util::get_u32(in, n) || n > kMaxRetiredElems) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t key = 0;
    std::string_view name;
    std::string_view blob;
    if (!util::get_u32(in, key) || !util::get_bytes(in, name) ||
        !util::get_bytes(in, blob))
      return false;
  }
  if (!util::get_u32(in, n) || n > kMaxRetiredElems ||
      in.size() / kRetiredAlarmBytes < n)
    return false;
  in.remove_prefix(std::size_t{n} * kRetiredAlarmBytes);
  std::uint64_t samples = 0;
  return util::get_u64(in, samples);
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
                [this](FaultReport&& fault) {
                  Diagnosis d;
                  d.fault = std::move(fault);
                  if (run_root_cause_) d.root_cause = rca_.analyze(d.fault);
                  stale_series_ += d.root_cause.stale_series;
                  if (diagnosis_sink_) {
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

void Analyzer::finish() { detector_.flush(); }

void Analyzer::save_state(std::string& out) const {
  detector_.save_state(out);
  util::put_u32(out, 0);  // retired: resource-stream detectors
  util::put_u32(out, 0);  // retired: resource alarms
  util::put_u64(out, 0);  // retired: resource samples
  util::put_u64(out, stale_series_);
}

bool Analyzer::load_state(std::string_view& in) {
  std::uint64_t stale = 0;
  if (!detector_.load_state(in) || !skip_retired_resource_stream(in) ||
      !util::get_u64(in, stale)) {
    detector_.reset_state();
    return false;
  }
  stale_series_ = stale;
  return true;
}

}  // namespace gretel::core
