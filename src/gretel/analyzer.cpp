#include "gretel/analyzer.h"

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

void Analyzer::finish() { detector_.flush(); }

void Analyzer::save_state(std::string& out) const {
  detector_.save_state(out);
  util::put_u64(out, stale_series_);
}

bool Analyzer::load_state(std::string_view& in) {
  std::uint64_t stale = 0;
  if (!detector_.load_state(in) || !util::get_u64(in, stale)) {
    detector_.reset_state();
    return false;
  }
  stale_series_ = stale;
  return true;
}

}  // namespace gretel::core
