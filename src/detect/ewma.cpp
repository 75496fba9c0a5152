#include "detect/ewma.h"

#include <cmath>

namespace gretel::detect {

std::optional<Alarm> EwmaDetector::observe(double t_seconds, double value) {
  ++seen_;
  if (seen_ <= params_.warmup) {
    // Flat average during warm-up seeds the estimates.
    const double w = 1.0 / static_cast<double>(seen_);
    const double delta = value - mean_;
    mean_ += w * delta;
    var_ += w * (delta * (value - mean_) - var_);
    return std::nullopt;
  }

  const double sigma = std::max(std::sqrt(var_), params_.sigma_floor);
  const double dev = value - mean_;

  if (std::fabs(dev) > params_.k_sigma * sigma) {
    // Out-of-control samples are excluded from the estimates (folding them
    // in would inflate the variance and mask the very shift being
    // confirmed); a confirmed shift re-centers the chart instead.
    const int sign = dev > 0 ? 1 : -1;
    if (sign != run_sign_) {
      run_ = 0;
      run_sign_ = sign;
    }
    if (++run_ == params_.confirm) {
      Alarm a;
      a.t_seconds = t_seconds;
      a.value = value;
      a.baseline = mean_;
      a.magnitude = std::fabs(dev);
      a.direction = sign > 0 ? ShiftDirection::Up : ShiftDirection::Down;
      run_ = 0;
      run_sign_ = 0;
      mean_ = value;  // adapt to the confirmed new level
      return a;
    }
    return std::nullopt;
  }

  run_ = 0;
  run_sign_ = 0;
  const double delta = value - mean_;
  mean_ += params_.alpha * delta;
  var_ = (1.0 - params_.alpha) * (var_ + params_.alpha * delta * delta);
  return std::nullopt;
}

void EwmaDetector::reset() {
  mean_ = 0.0;
  var_ = 0.0;
  seen_ = 0;
  run_ = 0;
  run_sign_ = 0;
}

std::unique_ptr<OutlierDetector> make_ewma() {
  return std::make_unique<EwmaDetector>();
}

}  // namespace gretel::detect
