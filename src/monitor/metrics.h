// Metrics storage and the collectd-analog resource monitor (§5.1, §6).
//
// "The resource monitoring agents periodically poll the host nodes for CPU,
// memory, network throughput, storage, and disk read/write behavior."
// ResourceMonitor samples every node's ground-truth NodeState on the
// configured period (1 s in the paper's setup) into a MetricsStore, which
// the root-cause engine later queries over the fault window.  Each series
// carries a freshness watermark (the time of its newest sample) so
// Is_Anomalous can distinguish "probed and normal" from "stale/unknown"
// when a stream freezes or an agent dies.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/probe.h"
#include "net/node.h"
#include "stack/deployment.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "wire/endpoint.h"

namespace gretel::monitor {

// One flat snapshot of the analyzer's degraded-telemetry counters, suitable
// for export to an operator dashboard.  Assembled by Analyzer::health();
// exact detector totals need a finish() or tick() first.
struct PipelineHealthCounters {
  // Capture tap.
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_quarantined = 0;     // malformed (decode failures)
  std::uint64_t frames_unknown_api = 0;
  std::uint64_t frames_non_monotonic = 0;
  // Detection pipeline.
  std::uint64_t losses_recorded = 0;        // quarantines + shed records
  std::uint64_t orphans_reaped = 0;
  std::uint64_t latency_clamped = 0;        // negative gaps clamped to 0
  std::uint64_t latency_rejected = 0;       // non-finite samples rejected
  std::uint64_t stale_freezes = 0;
  std::uint64_t degraded_reports = 0;
  // Streaming bounds (zero in batch mode, where the caps stay unset).
  std::uint64_t inflight_evicted = 0;       // pending requests evicted by cap
  std::uint64_t series_trimmed = 0;         // retained samples trimmed by cap
  // Monitoring plane (probed watchers; all zero under the oracle substrate).
  std::uint64_t probe_attempts = 0;
  std::uint64_t probe_retries = 0;
  std::uint64_t probe_timeouts = 0;
  std::uint64_t probe_drops = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t flap_suppressed = 0;
  std::uint64_t probe_budget_exhausted = 0;
  std::uint64_t stale_series = 0;           // stale/missing metric series hit
  // Resource sampling (filled by the ResourceMonitor owner; the analyzer
  // does not own the sampling loop).
  std::uint64_t frozen_samples = 0;

  std::string to_json() const;
};

class MetricsStore {
 public:
  void record(wire::NodeId node, net::ResourceKind kind, double t_seconds,
              double value);

  // Null when the (node, resource) pair was never sampled.
  const util::TimeSeries* series(wire::NodeId node,
                                 net::ResourceKind kind) const;

  // Freshness watermark: the newest sample time of the series, or empty
  // when the pair was never sampled.  A watermark lagging the queried
  // window means the stream froze or its agent died — evidence is Stale,
  // not "normal".
  std::optional<double> watermark_s(wire::NodeId node,
                                    net::ResourceKind kind) const;

  // Streaming retention (0 = keep everything, the batch default): when
  // set, each record() trims samples older than (newest − horizon) from
  // that series' front, amortized O(1) per sample.  Must comfortably
  // exceed the RCA window pad or Is_Anomalous loses baseline context.
  void set_retention_seconds(double horizon_s) { retention_s_ = horizon_s; }

  std::size_t total_samples() const { return total_samples_; }
  // Points currently held (≤ total_samples once retention trims).
  std::size_t retained_points() const;
  void clear();

 private:
  static std::uint32_t key(wire::NodeId node, net::ResourceKind kind) {
    return (std::uint32_t{node.value()} << 8) |
           static_cast<std::uint32_t>(kind);
  }

  std::unordered_map<std::uint32_t, util::TimeSeries> series_;
  std::size_t total_samples_ = 0;
  double retention_s_ = 0.0;
};

class ResourceMonitor {
 public:
  ResourceMonitor(const stack::Deployment* deployment,
                  util::SimDuration period, std::uint64_t seed);
  // Chaos-degradable variant: frozen metric streams and crashed agents
  // silently lose samples (audited by the injector).  Zero rates sample
  // identically to the plain monitor — the chaos draws are stateless and
  // never perturb the sampling RNG.
  ResourceMonitor(const stack::Deployment* deployment,
                  util::SimDuration period, std::uint64_t seed,
                  MonitorChaosConfig chaos);

  // Polls all nodes at the configured period over [from, to) into `store`.
  void sample_range(util::SimTime from, util::SimTime to,
                    MetricsStore& store);

  // Streaming variant: each sample goes to `sink` instead (e.g. the
  // analyzer's on_metric entry point, which also runs online LS).
  using Sink = std::function<void(wire::NodeId, net::ResourceKind,
                                  double t_seconds, double value)>;
  void sample_range(util::SimTime from, util::SimTime to, const Sink& sink);

  util::SimDuration period() const { return period_; }
  std::uint64_t frozen_samples() const { return frozen_samples_; }
  const MonitorChaos* chaos() const { return chaos_ ? &*chaos_ : nullptr; }

 private:
  const stack::Deployment* deployment_;
  util::SimDuration period_;
  util::Rng rng_;
  std::optional<MonitorChaos> chaos_;
  std::uint64_t frozen_samples_ = 0;
};

}  // namespace gretel::monitor
