// EWMA control-chart detector: a third option behind the pluggable
// OutlierDetector interface (§6).  Tracks exponentially weighted moving
// estimates of mean and variance; alarms when a sample leaves the k·σ
// control band, then folds the sample in (so, like LS and unlike z-score,
// it adapts to sustained shifts — just more gradually).
#pragma once

#include <optional>

#include "detect/outlier.h"

namespace gretel::detect {

struct EwmaParams {
  double alpha = 0.1;        // smoothing factor for mean and variance
  std::size_t warmup = 12;   // samples before detection arms
  double k_sigma = 5.0;
  double sigma_floor = 1e-6;
  // Consecutive out-of-band samples required to alarm (spike rejection).
  std::size_t confirm = 3;
};

class EwmaDetector final : public OutlierDetector {
 public:
  EwmaDetector() = default;
  explicit EwmaDetector(EwmaParams params) : params_(params) {}

  std::optional<Alarm> observe(double t_seconds, double value) override;
  std::string_view name() const override { return "ewma"; }
  void reset() override;

  double mean() const { return mean_; }

 private:
  EwmaParams params_;
  double mean_ = 0.0;
  double var_ = 0.0;
  std::size_t seen_ = 0;
  std::size_t run_ = 0;  // consecutive out-of-band samples
  int run_sign_ = 0;
};

std::unique_ptr<OutlierDetector> make_ewma();

}  // namespace gretel::detect
