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
  // set, record() keeps at least the samples within `horizon_s` of the
  // series' newest one.  It trims in batches, once the oldest point is half
  // a horizon past the cutoff, so each point is moved O(1) times and a
  // series holds at most 1.5 × horizon of samples.  The horizon must cover
  // the RCA pad and Is_Anomalous's baseline span (StreamAnalyzer arms
  // 2 × detect::kBaselineSeconds).
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

  // Streaming variant: each sample goes to `sink` instead (e.g.
  // StreamAnalyzer::on_metric).
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
