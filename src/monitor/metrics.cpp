#include "monitor/metrics.h"

namespace gretel::monitor {

std::string PipelineHealthCounters::to_json() const {
  std::string out = "{";
  const auto field = [&out](const char* name, std::uint64_t v) {
    if (out.size() > 1) out += ", ";
    out += '"';
    out += name;
    out += "\": ";
    out += std::to_string(v);
  };
  field("frames_decoded", frames_decoded);
  field("frames_quarantined", frames_quarantined);
  field("frames_unknown_api", frames_unknown_api);
  field("frames_non_monotonic", frames_non_monotonic);
  field("losses_recorded", losses_recorded);
  field("orphans_reaped", orphans_reaped);
  field("latency_clamped", latency_clamped);
  field("latency_rejected", latency_rejected);
  field("stale_freezes", stale_freezes);
  field("degraded_reports", degraded_reports);
  field("probe_attempts", probe_attempts);
  field("probe_retries", probe_retries);
  field("probe_timeouts", probe_timeouts);
  field("probe_drops", probe_drops);
  field("breaker_trips", breaker_trips);
  field("breaker_skips", breaker_skips);
  field("flap_suppressed", flap_suppressed);
  field("probe_budget_exhausted", probe_budget_exhausted);
  field("stale_series", stale_series);
  field("frozen_samples", frozen_samples);
  field("inflight_evicted", inflight_evicted);
  field("series_trimmed", series_trimmed);
  out += "}";
  return out;
}

void MetricsStore::record(wire::NodeId node, net::ResourceKind kind,
                          double t_seconds, double value) {
  auto& series = series_[key(node, kind)];
  series.add(t_seconds, value);
  ++total_samples_;
  if (retention_s_ > 0.0) {
    // Trim from the front up to the horizon.  Each point is scanned once
    // on its way out, so the cost is amortized O(1) per record.
    const double cutoff = t_seconds - retention_s_;
    const auto pts = series.points();
    std::size_t drop = 0;
    while (drop < pts.size() && pts[drop].t_seconds < cutoff) ++drop;
    series.drop_front(drop);
  }
}

const util::TimeSeries* MetricsStore::series(wire::NodeId node,
                                             net::ResourceKind kind) const {
  const auto it = series_.find(key(node, kind));
  return it == series_.end() ? nullptr : &it->second;
}

std::optional<double> MetricsStore::watermark_s(wire::NodeId node,
                                                net::ResourceKind kind) const {
  const auto it = series_.find(key(node, kind));
  if (it == series_.end() || it->second.empty()) return std::nullopt;
  return it->second.points().back().t_seconds;
}

std::size_t MetricsStore::retained_points() const {
  std::size_t total = 0;
  for (const auto& [k, s] : series_) total += s.size();
  return total;
}

void MetricsStore::clear() {
  series_.clear();
  total_samples_ = 0;
}

ResourceMonitor::ResourceMonitor(const stack::Deployment* deployment,
                                 util::SimDuration period, std::uint64_t seed)
    : deployment_(deployment), period_(period), rng_(seed) {}

ResourceMonitor::ResourceMonitor(const stack::Deployment* deployment,
                                 util::SimDuration period, std::uint64_t seed,
                                 MonitorChaosConfig chaos)
    : deployment_(deployment),
      period_(period),
      rng_(seed),
      chaos_(MonitorChaos(std::move(chaos))) {}

void ResourceMonitor::sample_range(util::SimTime from, util::SimTime to,
                                   MetricsStore& store) {
  sample_range(from, to,
               [&store](wire::NodeId node, net::ResourceKind kind,
                        double t_seconds, double value) {
                 store.record(node, kind, t_seconds, value);
               });
}

void ResourceMonitor::sample_range(util::SimTime from, util::SimTime to,
                                   const Sink& sink) {
  const bool chaotic = chaos_ && chaos_->config().enabled();
  for (util::SimTime t = from; t < to; t += period_) {
    for (auto node_id : deployment_->node_ids()) {
      const auto& node = deployment_->node(node_id);
      for (std::size_t k = 0; k < net::kResourceKinds; ++k) {
        const auto kind = static_cast<net::ResourceKind>(k);
        // The ground-truth draw happens unconditionally so a frozen stream
        // changes which samples are *delivered*, never the values of the
        // survivors — chaos sweeps stay comparable sample-for-sample.
        const double value = node.sample(kind, t, rng_);
        if (chaotic && chaos_->metric_frozen(node_id, to_string(kind), t)) {
          ++frozen_samples_;
          continue;
        }
        sink(node_id, kind, t.to_seconds(), value);
      }
    }
  }
}

}  // namespace gretel::monitor
