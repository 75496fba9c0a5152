#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace gretel::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// Linear interpolation between two adjacent order statistics, with a zero
// result normalized to +0.0.  Which of two equal-comparing zeros (+0.0,
// -0.0) lands at a given rank is an artifact of the sort or selection
// algorithm, not of the data; adding +0.0 maps -0.0 to +0.0 and leaves every
// other value unchanged, so the sort- and selection-based estimators agree
// bit for bit on every input.
double interpolate(double vlo, double vhi, double frac) {
  return vlo * (1.0 - frac) + vhi * frac + 0.0;
}

}  // namespace

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return interpolate(v[lo], v[hi], frac);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double mad_sigma(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double med = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::fabs(x - med));
  return 1.4826 * median(dev);
}

double median_inplace(std::span<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t n = xs.size();
  // Exactly quantile(xs, 0.5)'s arithmetic: lo = floor(0.5*(n-1)),
  // hi = lo+1 clamped, interpolate — the v[hi]*frac term participates even
  // when frac == 0.0 (an infinite upper neighbour makes it NaN), so the
  // upper order statistic is always materialized.
  const double pos = 0.5 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(lo),
                   xs.end());
  const double vlo = xs[lo];
  const double vhi =
      lo + 1 < n
          ? *std::min_element(xs.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                              xs.end())
          : vlo;
  return interpolate(vlo, vhi, frac);
}

double mad_sigma_inplace(std::span<double> xs) {
  if (xs.empty()) return 0.0;
  const double med = median_inplace(xs);
  for (auto& x : xs) x = std::fabs(x - med);
  return 1.4826 * median_inplace(xs);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> xs) : xs_(std::move(xs)) {
  std::sort(xs_.begin(), xs_.end());
}

double EmpiricalCdf::evaluate(double x) const {
  if (xs_.empty()) return 0.0;
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  return static_cast<double>(it - xs_.begin()) /
         static_cast<double>(xs_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::points() const {
  std::vector<std::pair<double, double>> out;
  out.reserve(xs_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    out.emplace_back(xs_[i], static_cast<double>(i + 1) /
                                 static_cast<double>(xs_.size()));
  }
  return out;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.value);
  return out;
}

}  // namespace gretel::util
