// Small statistics toolkit used across the analyzer, the detectors and the
// benchmark harnesses: running moments, order statistics, robust estimators
// (median / MAD) and empirical CDFs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gretel::util {

// Single-pass mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance; 0 for n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Order statistics over a copy of the data (linear-interpolated quantile).
// q in [0, 1]; empty input yields 0.  A zero result is always +0.0, so the
// result depends only on the values, never on where a sort left tied
// +0.0 / -0.0 entries.
double quantile(std::span<const double> xs, double q);
double median(std::span<const double> xs);

// Median absolute deviation scaled to be a consistent estimator of the
// standard deviation under normality (factor 1.4826).
double mad_sigma(std::span<const double> xs);

// Allocation-free variants for refresh hot loops: permute the caller's
// buffer (nth_element selection, O(n) expected) instead of copying and
// sorting it.  Bit-identical to median()/mad_sigma() on the same values —
// including the interpolation arithmetic on even sizes and mixed-sign zero
// ties — so detectors can switch per call site without changing output
// (pinned by tests/util/stats_test.cpp).
double median_inplace(std::span<double> xs);
double mad_sigma_inplace(std::span<double> xs);

// Empirical CDF over a sample; evaluate() returns P[X <= x].
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> xs);

  double evaluate(double x) const;
  // Fraction-at-or-below for each of the sorted sample points, convenient for
  // printing CDF tables: returns (value, cumulative fraction) pairs.
  std::vector<std::pair<double, double>> points() const;
  std::size_t size() const { return xs_.size(); }

 private:
  std::vector<double> xs_;  // sorted
};

// A timestamped scalar series (latency per API, CPU per node, ...).
struct SeriesPoint {
  double t_seconds;
  double value;
};

class TimeSeries {
 public:
  void add(double t_seconds, double value) {
    points_.push_back({t_seconds, value});
  }
  std::span<const SeriesPoint> points() const { return points_; }
  std::vector<double> values() const;
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  void clear() { points_.clear(); }

  // Drops the n oldest points (streaming retention/caps).  O(remaining);
  // callers amortize by dropping in batches rather than one at a time.
  void drop_front(std::size_t n) {
    if (n == 0) return;
    if (n >= points_.size()) {
      points_.clear();
      return;
    }
    points_.erase(points_.begin(),
                  points_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<SeriesPoint> points_;
};

}  // namespace gretel::util
