// Online level-shift detector — the analog of tsoutliers' LS mode (§6).
//
// Semantics the paper relies on (§7.3 item 4): a *sustained* move of the
// series level away from the adapted baseline raises one alarm, after which
// the detector re-adapts to the new level; fluctuation smaller than the
// confirmed shift does not alarm again.  Implementation: a robust baseline
// (median / MAD over a rolling window) plus an m-consecutive-deviations
// confirmation rule, with re-baselining on confirmation.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "detect/outlier.h"

namespace gretel::detect {

struct LevelShiftParams {
  std::size_t baseline_window = 64;  // samples kept for the robust baseline
  std::size_t min_baseline = 12;     // samples before detection arms
  double k_sigma = 5.0;              // deviation threshold in MAD-sigmas
  std::size_t confirm = 3;           // consecutive deviations to confirm
  double sigma_floor = 1e-6;         // lower bound on the scale estimate
  // Re-alarm suppression: after a confirmed shift, no new alarm for this
  // many seconds even if the series keeps moving.
  double cooldown_seconds = 5.0;
};

class LevelShiftDetector final : public OutlierDetector {
 public:
  LevelShiftDetector() = default;
  explicit LevelShiftDetector(LevelShiftParams params) : params_(params) {}

  std::optional<Alarm> observe(double t_seconds, double value) override;
  std::string_view name() const override { return "level-shift"; }
  void reset() override;

  // Checkpoint support (src/persist/): appends the *dynamic* state —
  // learned baseline, pending run, cooldown clock — to `out` in the
  // util/binio.h big-endian vocabulary.  Parameters are not serialized:
  // restore constructs the detector from config, then load_state()
  // rehydrates what it learned.  save_state never mutates the detector (a
  // save mid-stream must not perturb later alarms), and
  // load_state(save_state(d)) reproduces d's behavior bit-for-bit.
  // load_state consumes its bytes from the front of `in` and returns
  // false, leaving the detector reset, on torn or malformed input.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

  // Current robust level estimate (for plots / tests).
  double level();
  bool armed() const { return window_.size() >= params_.min_baseline; }

  // NaN / ±inf samples rejected before touching the baseline.  One such
  // value in the window would make every subsequent median/MAD NaN and
  // silently disarm the detector forever.
  std::uint64_t rejected_nonfinite() const { return rejected_nonfinite_; }

 private:
  // Recomputes the cached robust baseline (median / MAD-sigma).  The exact
  // estimates only need to track the window loosely — deviations are judged
  // against a 5σ band — so the cache is refreshed every few in-band
  // absorptions instead of per sample, keeping observe() O(1) amortized at
  // line rate (§7.4.1).
  void refresh_baseline();

  LevelShiftParams params_;
  std::deque<double> window_;
  std::vector<double> pending_;  // consecutive out-of-band samples
  // Preallocated buffer for the in-place median/MAD estimators: refreshes
  // permute this copy instead of allocating a fresh vector per refresh.
  std::vector<double> scratch_;
  int pending_sign_ = 0;
  double last_alarm_t_ = -1e300;
  double cached_median_ = 0.0;
  double cached_sigma_ = 0.0;
  int stale_ = 0;  // absorptions since the last refresh
  std::uint64_t rejected_nonfinite_ = 0;
};

std::unique_ptr<OutlierDetector> make_level_shift();

}  // namespace gretel::detect
