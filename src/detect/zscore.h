// Windowed z-score detector: the simple alternative behind the pluggable
// OutlierDetector interface, used in ablations against the level-shift
// detector.  Alarms on every sample more than k standard deviations from the
// rolling mean — which is precisely why it is noisy under sustained shifts
// (it never adapts) and why the paper prefers LS.
#pragma once

#include <deque>
#include <optional>

#include "detect/outlier.h"

namespace gretel::detect {

struct ZScoreParams {
  std::size_t window = 64;
  std::size_t min_samples = 12;
  double k_sigma = 5.0;
  double sigma_floor = 1e-6;
};

class ZScoreDetector final : public OutlierDetector {
 public:
  ZScoreDetector() = default;
  explicit ZScoreDetector(ZScoreParams params) : params_(params) {}

  std::optional<Alarm> observe(double t_seconds, double value) override;
  std::string_view name() const override { return "z-score"; }
  void reset() override;

 private:
  ZScoreParams params_;
  std::deque<double> window_;
};

std::unique_ptr<OutlierDetector> make_zscore();

}  // namespace gretel::detect
