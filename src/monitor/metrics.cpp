#include "monitor/metrics.h"

namespace gretel::monitor {

void MetricsStore::record(wire::NodeId node, net::ResourceKind kind,
                          double t_seconds, double value) {
  auto& series = series_[key(node, kind)];
  series.add(t_seconds, value);
  ++total_samples_;
  if (retention_s_ > 0.0) {
    // Trim the front up to the horizon, but only once the oldest point is
    // half a horizon past it: drop_front moves every retained point, so
    // batching keeps the cost amortized O(1) per record.
    const double cutoff = t_seconds - retention_s_;
    const auto pts = series.points();
    if (pts.front().t_seconds <= cutoff - 0.5 * retention_s_) {
      std::size_t drop = 0;
      while (drop < pts.size() && pts[drop].t_seconds < cutoff) ++drop;
      series.drop_front(drop);
    }
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
