#include "detect/zscore.h"

#include <cmath>

#include "util/stats.h"

namespace gretel::detect {

std::optional<Alarm> ZScoreDetector::observe(double t_seconds, double value) {
  std::optional<Alarm> alarm;
  if (window_.size() >= params_.min_samples) {
    util::RunningStats stats;
    for (double v : window_) stats.add(v);
    const double sigma = std::max(stats.stddev(), params_.sigma_floor);
    const double dev = value - stats.mean();
    if (std::fabs(dev) > params_.k_sigma * sigma) {
      Alarm a;
      a.t_seconds = t_seconds;
      a.value = value;
      a.baseline = stats.mean();
      a.magnitude = std::fabs(dev);
      a.direction = dev > 0 ? ShiftDirection::Up : ShiftDirection::Down;
      alarm = a;
    }
  }
  window_.push_back(value);
  while (window_.size() > params_.window) window_.pop_front();
  return alarm;
}

void ZScoreDetector::reset() { window_.clear(); }

std::unique_ptr<OutlierDetector> make_zscore() {
  return std::make_unique<ZScoreDetector>();
}

}  // namespace gretel::detect
