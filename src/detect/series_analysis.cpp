#include "detect/series_analysis.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace gretel::detect {

WindowVerdict analyze_window(const util::TimeSeries& series,
                             double window_start_s, double window_end_s,
                             std::vector<double>& scratch, double k_sigma,
                             double min_abs) {
  const auto points = series.points();
  const double baseline_start_s = window_start_s - kBaselineSeconds;
  // One pass: window values fill `scratch` from the front, baseline values
  // from the back; points outside both spans are skipped.
  scratch.resize(points.size());
  std::size_t n_inside = 0;
  std::size_t n_baseline = 0;
  for (const auto& p : points) {
    if (p.t_seconds >= window_start_s && p.t_seconds < window_end_s) {
      scratch[n_inside++] = p.value;
    } else if (p.t_seconds >= baseline_start_s &&
               p.t_seconds < window_start_s) {
      scratch[points.size() - ++n_baseline] = p.value;
    }
  }
  const std::span<double> inside(scratch.data(), n_inside);
  const std::span<double> baseline(
      scratch.data() + points.size() - n_baseline, n_baseline);

  WindowVerdict v;
  v.window_samples = n_inside;
  if (inside.empty()) return v;
  // The window level is meaningful on its own (absolute health rules read
  // it); the relative anomaly judgment additionally needs enough baseline.
  v.window_level = util::median_inplace(inside);
  if (baseline.size() < kMinBaselinePoints) return v;
  v.baseline_level = util::median_inplace(baseline);
  v.sigma = std::max(util::mad_sigma_inplace(baseline), 1e-9);
  const double dev = std::fabs(v.window_level - v.baseline_level);
  v.anomalous = dev > k_sigma * v.sigma && dev > min_abs;
  return v;
}

std::optional<const char*> absolute_rule_violation(net::ResourceKind kind,
                                                   double value) {
  switch (kind) {
    case net::ResourceKind::CpuPct:
      if (value > 90.0) return "CPU pegged above 90%";
      break;
    case net::ResourceKind::DiskFreeMb:
      if (value < 1024.0) return "free disk space below 1 GB";
      break;
    case net::ResourceKind::MemUsedMb:
      if (value > 100.0 * 1024.0) return "memory consumption above 100 GB";
      break;
    case net::ResourceKind::NetMbps:
    case net::ResourceKind::DiskIoOps:
      break;
  }
  return std::nullopt;
}

}  // namespace gretel::detect
