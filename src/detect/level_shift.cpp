#include "detect/level_shift.h"

#include <algorithm>
#include <cmath>

#include "util/binio.h"
#include "util/stats.h"

namespace gretel::detect {

namespace {

// In-band absorptions between two refreshes of the cached baseline.
constexpr int kRefreshEvery = 8;

}  // namespace

LevelShiftDetector::LevelShiftDetector(LevelShiftParams params)
    : params_(params) {
  // The window peaks at baseline_window + 1 (push, then trim), at
  // min_baseline before it arms, and at confirm right after a shift.
  const std::size_t most = std::max({params_.baseline_window + 1,
                                     params_.min_baseline, params_.confirm});
  window_.reserve(most);
  scratch_.reserve(most);
  pending_.reserve(params_.confirm);
}

void LevelShiftDetector::window_to_scratch() {
  scratch_.clear();
  for (std::size_t i = 0; i < window_.size(); ++i)
    scratch_.push_back(window_[i]);
}

void LevelShiftDetector::refresh_baseline() {
  // Refresh runs at line rate (every few absorptions); the preallocated
  // scratch plus the nth_element-based estimators keep it allocation-free
  // after warm-up.  The in-place variants are bit-identical to
  // median()/mad_sigma(), so alarms are unchanged.
  window_to_scratch();
  cached_median_ = util::median_inplace(scratch_);
  window_to_scratch();
  cached_sigma_ =
      std::max(util::mad_sigma_inplace(scratch_), params_.sigma_floor);
  stale_ = 0;
}

double LevelShiftDetector::level() {
  if (window_.empty()) return 0.0;
  refresh_baseline();
  return cached_median_;
}

std::optional<Alarm> LevelShiftDetector::observe(double t_seconds,
                                                 double value) {
  if (!std::isfinite(value)) {
    ++rejected_nonfinite_;
    return std::nullopt;
  }
  if (!armed()) {
    window_.claim_back() = value;
    if (armed()) refresh_baseline();
    return std::nullopt;
  }

  const double dev = value - cached_median_;
  const int sign = dev > 0 ? 1 : -1;

  if (std::fabs(dev) <= params_.k_sigma * cached_sigma_) {
    // In-band: absorb into the baseline, clear any pending run.  The robust
    // baseline is refreshed periodically, not per sample.
    pending_.clear();
    pending_sign_ = 0;
    window_.claim_back() = value;
    while (window_.size() > params_.baseline_window) window_.pop_front();
    if (++stale_ >= kRefreshEvery) refresh_baseline();
    return std::nullopt;
  }

  // Out-of-band: extend (or restart) the consecutive run.
  if (sign != pending_sign_) {
    pending_.clear();
    pending_sign_ = sign;
  }
  pending_.push_back(value);
  if (pending_.size() < params_.confirm) return std::nullopt;

  // Confirmed level shift: re-baseline onto the new level.  The pending run
  // seeds the new window below, so the median runs on the scratch copy.
  scratch_.assign(pending_.begin(), pending_.end());
  const double new_level = util::median_inplace(scratch_);
  Alarm alarm;
  alarm.t_seconds = t_seconds;
  alarm.value = value;
  alarm.baseline = cached_median_;
  alarm.magnitude = std::fabs(new_level - cached_median_);
  alarm.direction = sign > 0 ? ShiftDirection::Up : ShiftDirection::Down;

  window_.clear();
  for (double v : pending_) window_.claim_back() = v;
  pending_.clear();
  pending_sign_ = 0;
  refresh_baseline();

  const bool in_cooldown =
      (t_seconds - last_alarm_t_) < params_.cooldown_seconds;
  last_alarm_t_ = t_seconds;
  if (in_cooldown) return std::nullopt;
  return alarm;
}

void LevelShiftDetector::reset() {
  window_.clear();
  pending_.clear();
  scratch_.clear();
  pending_sign_ = 0;
  last_alarm_t_ = -1e300;
  cached_median_ = 0.0;
  cached_sigma_ = 0.0;
  stale_ = 0;
  rejected_nonfinite_ = 0;
}

void LevelShiftDetector::save_state(std::string& out) const {
  // Raw fields only: the cached median/sigma are serialized as-is rather
  // than recomputed (level()/refresh_baseline() mutate the cache refresh
  // clock, which would make a checkpointed run diverge from an
  // uncheckpointed one).  scratch_ is a temp buffer, always re-assigned
  // before use, so it carries no state.
  util::put_u32(out, static_cast<std::uint32_t>(window_.size()));
  for (std::size_t i = 0; i < window_.size(); ++i)
    util::put_f64(out, window_[i]);
  util::put_u32(out, static_cast<std::uint32_t>(pending_.size()));
  for (double v : pending_) util::put_f64(out, v);
  util::put_i64(out, pending_sign_);
  util::put_f64(out, last_alarm_t_);
  util::put_f64(out, cached_median_);
  util::put_f64(out, cached_sigma_);
  util::put_i64(out, stale_);
  util::put_u64(out, rejected_nonfinite_);
}

bool LevelShiftDetector::load_state(std::string_view& in) {
  reset();
  // Reject what save_state can never write, before allocating: after any
  // observe() the window holds at most the largest of baseline_window,
  // min_baseline and confirm samples, the pending run stays shorter than
  // confirm, the sign is -1, 0 or 1, and the refresh clock stays below
  // kRefreshEvery.
  const std::size_t max_window = std::max(
      {params_.baseline_window, params_.min_baseline, params_.confirm});
  const auto get_values = [&in](std::size_t most, auto&& append) {
    std::uint32_t n = 0;
    if (!util::get_u32(in, n) || n > most) return false;
    for (std::uint32_t i = 0; i < n; ++i) {
      double v = 0.0;
      if (!util::get_f64(in, v)) return false;
      append(v);
    }
    return true;
  };
  std::int64_t sign = 0;
  std::int64_t stale = 0;
  if (!get_values(max_window,
                  [this](double v) { window_.claim_back() = v; }) ||
      !get_values(std::max<std::size_t>(params_.confirm, 1) - 1,
                  [this](double v) { pending_.push_back(v); }) ||
      !util::get_i64(in, sign) || sign < -1 || sign > 1 ||
      !util::get_f64(in, last_alarm_t_) ||
      !util::get_f64(in, cached_median_) ||
      !util::get_f64(in, cached_sigma_) || !util::get_i64(in, stale) ||
      stale < 0 || stale >= kRefreshEvery ||
      !util::get_u64(in, rejected_nonfinite_)) {
    reset();
    return false;
  }
  pending_sign_ = static_cast<int>(sign);
  stale_ = static_cast<int>(stale);
  return true;
}

}  // namespace gretel::detect
