#include "detect/level_shift.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

namespace gretel::detect {
namespace {

LevelShiftParams fast_params() {
  LevelShiftParams p;
  p.baseline_window = 32;
  p.min_baseline = 8;
  p.k_sigma = 5.0;
  p.confirm = 3;
  p.sigma_floor = 0.01;
  p.cooldown_seconds = 0.0;
  return p;
}

// Feeds a flat series with gaussian noise; returns alarms raised.
int feed_noise(LevelShiftDetector& d, double level, double sigma, int n,
               std::uint64_t seed, double t0 = 0.0) {
  util::Rng rng(seed);
  int alarms = 0;
  for (int i = 0; i < n; ++i) {
    alarms += d.observe(t0 + i, rng.next_gaussian(level, sigma)).has_value();
  }
  return alarms;
}

TEST(LevelShift, NoAlarmOnStationarySeries) {
  LevelShiftDetector d(fast_params());
  EXPECT_EQ(feed_noise(d, 10.0, 0.5, 500, 1), 0);
}

TEST(LevelShift, NotArmedBeforeMinBaseline) {
  LevelShiftDetector d(fast_params());
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(d.observe(i, 10.0).has_value());
    EXPECT_FALSE(d.armed());
  }
  d.observe(8, 10.0);
  EXPECT_TRUE(d.armed());
}

TEST(LevelShift, DetectsUpwardShift) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 2);
  // Sustained jump to 20: confirmed on the 3rd deviating sample.
  EXPECT_FALSE(d.observe(100, 20.0).has_value());
  EXPECT_FALSE(d.observe(101, 20.2).has_value());
  const auto alarm = d.observe(102, 19.8);
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(alarm->direction, ShiftDirection::Up);
  EXPECT_NEAR(alarm->baseline, 10.0, 0.5);
  EXPECT_NEAR(alarm->magnitude, 10.0, 1.0);
}

TEST(LevelShift, DetectsDownwardShift) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 50.0, 0.5, 100, 3);
  d.observe(100, 20.0);
  d.observe(101, 20.0);
  const auto alarm = d.observe(102, 20.0);
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(alarm->direction, ShiftDirection::Down);
}

TEST(LevelShift, SingleSpikeDoesNotAlarm) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 4);
  EXPECT_FALSE(d.observe(100, 50.0).has_value());  // isolated outlier
  EXPECT_EQ(feed_noise(d, 10.0, 0.3, 100, 5, 101.0), 0);
}

TEST(LevelShift, AdaptsAfterShift) {
  // The paper's key LS property (§7.3): after a confirmed shift the detector
  // re-baselines; continued samples at the new level stay quiet.
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 6);
  d.observe(100, 25.0);
  d.observe(101, 25.1);
  ASSERT_TRUE(d.observe(102, 24.9).has_value());
  EXPECT_EQ(feed_noise(d, 25.0, 0.3, 300, 7, 103.0), 0);
  EXPECT_NEAR(d.level(), 25.0, 0.5);
}

TEST(LevelShift, ShiftBackAlarmsAgain) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 8);
  d.observe(100, 25.0);
  d.observe(101, 25.0);
  ASSERT_TRUE(d.observe(102, 25.0).has_value());
  feed_noise(d, 25.0, 0.3, 50, 9, 103.0);
  d.observe(200, 10.0);
  d.observe(201, 10.0);
  const auto alarm = d.observe(202, 10.0);
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(alarm->direction, ShiftDirection::Down);
}

TEST(LevelShift, CooldownSuppressesRapidReAlarms) {
  auto params = fast_params();
  params.cooldown_seconds = 100.0;
  LevelShiftDetector d(params);
  feed_noise(d, 10.0, 0.3, 100, 10);
  d.observe(100, 25.0);
  d.observe(101, 25.0);
  ASSERT_TRUE(d.observe(102, 25.0).has_value());
  // Another shift within the cooldown: confirmed but not reported.
  d.observe(110, 60.0);
  d.observe(111, 60.0);
  EXPECT_FALSE(d.observe(112, 60.0).has_value());
}

TEST(LevelShift, DirectionFlipsRestartConfirmation) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 11);
  // Alternating up/down excursions never accumulate `confirm` same-signed
  // deviations.
  EXPECT_FALSE(d.observe(100, 20.0).has_value());
  EXPECT_FALSE(d.observe(101, 0.0).has_value());
  EXPECT_FALSE(d.observe(102, 20.0).has_value());
  EXPECT_FALSE(d.observe(103, 0.0).has_value());
}

TEST(LevelShift, ResetForgetsState) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 12);
  d.observe(100, std::numeric_limits<double>::quiet_NaN());
  d.reset();
  EXPECT_FALSE(d.armed());
  EXPECT_EQ(d.rejected_nonfinite(), 0u);
  EXPECT_DOUBLE_EQ(d.level(), 0.0);
}

// Alarm times raised over a fixed series: a warm-up at 10, a shift to 25,
// a shift back to 10.
std::vector<double> alarm_times(LevelShiftDetector& d) {
  std::vector<double> times;
  util::Rng rng(16);
  for (int i = 0; i < 150; ++i) {
    const double level = i < 60 ? 10.0 : i < 100 ? 25.0 : 10.0;
    if (const auto alarm = d.observe(i, rng.next_gaussian(level, 0.3))) {
      times.push_back(alarm->t_seconds);
    }
  }
  return times;
}

TEST(LevelShift, TornLoadLeavesDetectorReset) {
  // A saved state with a full window, a pending out-of-band run and a
  // non-finite rejection, so every section of the blob is populated.
  LevelShiftDetector saved(fast_params());
  feed_noise(saved, 10.0, 0.3, 100, 17);
  saved.observe(100, std::numeric_limits<double>::quiet_NaN());
  saved.observe(101, 40.0);
  saved.observe(102, 40.0);
  std::string blob;
  saved.save_state(blob);

  LevelShiftDetector fresh(fast_params());
  const auto expected = alarm_times(fresh);
  ASSERT_FALSE(expected.empty());

  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    // A used detector, so a load that fails to reset shows.
    LevelShiftDetector d(fast_params());
    feed_noise(d, 50.0, 0.3, 100, 18);
    d.observe(100, std::numeric_limits<double>::infinity());
    std::string_view in(blob.data(), keep);
    ASSERT_FALSE(d.load_state(in));
    EXPECT_FALSE(d.armed());
    EXPECT_EQ(d.rejected_nonfinite(), 0u);
    EXPECT_EQ(alarm_times(d), expected);
  }

  LevelShiftDetector whole(fast_params());
  std::string_view in(blob);
  ASSERT_TRUE(whole.load_state(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(whole.rejected_nonfinite(), 1u);
}

TEST(LevelShift, LoadRejectsStateSaveCannotWrite) {
  // Default params: confirm 3, baseline_window 64, min_baseline 12.  The
  // blob is built field by field in save_state's layout.
  struct Fields {
    std::vector<double> window;
    std::vector<double> pending;
    std::int64_t sign = 1;
    std::int64_t stale = 0;
  };
  const auto encode = [](const Fields& f) {
    std::string out;
    util::put_u32(out, static_cast<std::uint32_t>(f.window.size()));
    for (double v : f.window) util::put_f64(out, v);
    util::put_u32(out, static_cast<std::uint32_t>(f.pending.size()));
    for (double v : f.pending) util::put_f64(out, v);
    util::put_i64(out, f.sign);
    util::put_f64(out, -1e300);  // last alarm
    util::put_f64(out, 10.0);    // cached median
    util::put_f64(out, 0.3);     // cached sigma
    util::put_i64(out, f.stale);
    util::put_u64(out, 0);  // rejected non-finite
    return out;
  };
  // A full window and a pending run of confirm - 1: the largest state
  // save_state writes.
  const Fields valid{std::vector<double>(64, 10.0), {40.0, 40.0}, 1, 7};
  const auto loads = [&encode](const Fields& f) {
    LevelShiftDetector d;
    const std::string bytes = encode(f);
    std::string_view in(bytes);
    const bool ok = d.load_state(in);
    if (!ok) {
      EXPECT_FALSE(d.armed());  // left reset
    }
    return ok;
  };
  EXPECT_TRUE(loads(valid));

  auto f = valid;
  f.pending.push_back(40.0);  // a run of confirm would alarm on the next
  EXPECT_FALSE(loads(f));     // out-of-band sample, not after three
  f = valid;
  f.window.assign(5000, 10.0);
  EXPECT_FALSE(loads(f));
  f.window.assign(65, 10.0);
  EXPECT_FALSE(loads(f));
  for (const std::int64_t sign : {-2, 2}) {
    f = valid;
    f.sign = sign;
    EXPECT_FALSE(loads(f)) << "sign " << sign;
  }
  for (const std::int64_t stale : {-1, 8}) {
    f = valid;
    f.stale = stale;
    EXPECT_FALSE(loads(f)) << "stale " << stale;
  }
}

TEST(LevelShift, DefaultParamsAlarmOncePerShift) {
  // The regime of the retired detector ablation, at the production
  // defaults: 600 samples of N(10, 0.4), 600 of N(14, 0.4) (a +10σ shift),
  // then 300 of N(10, 0.4).  Each seed raises no alarm while stationary,
  // one alarm in the shift, on its 3rd sample, and one on recovery.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LevelShiftDetector d;
    util::Rng rng(seed);
    double t = 0;
    int stationary = 0;
    std::vector<int> in_shift;  // sample indices that alarmed
    int recovery = 0;
    for (int i = 0; i < 600; ++i, ++t)
      stationary += d.observe(t, rng.next_gaussian(10.0, 0.4)).has_value();
    for (int i = 0; i < 600; ++i, ++t)
      if (d.observe(t, rng.next_gaussian(14.0, 0.4))) in_shift.push_back(i);
    for (int i = 0; i < 300; ++i, ++t)
      recovery += d.observe(t, rng.next_gaussian(10.0, 0.4)).has_value();
    EXPECT_EQ(stationary, 0);
    EXPECT_EQ(in_shift, std::vector<int>{2});
    EXPECT_EQ(recovery, 1);
  }
}

TEST(LevelShift, RejectsNonFiniteSamples) {
  LevelShiftDetector d(fast_params());
  feed_noise(d, 10.0, 0.3, 100, 14);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(d.observe(100, nan).has_value());
  EXPECT_FALSE(d.observe(101, inf).has_value());
  EXPECT_FALSE(d.observe(102, -inf).has_value());
  EXPECT_EQ(d.rejected_nonfinite(), 3u);
  // The baseline is untouched: the detector stays armed at the old level
  // and still confirms a genuine shift afterwards.
  EXPECT_TRUE(d.armed());
  EXPECT_NEAR(d.level(), 10.0, 0.5);
  d.observe(103, 25.0);
  d.observe(104, 25.0);
  EXPECT_TRUE(d.observe(105, 25.0).has_value());
}

TEST(LevelShift, NonFiniteBeforeBaselineDoesNotArm) {
  LevelShiftDetector d(fast_params());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(d.observe(i, nan).has_value());
  }
  EXPECT_FALSE(d.armed());  // garbage never counts toward min_baseline
  EXPECT_EQ(d.rejected_nonfinite(), 20u);
  // Real samples still arm it normally.
  EXPECT_EQ(feed_noise(d, 10.0, 0.3, 50, 15, 100.0), 0);
  EXPECT_TRUE(d.armed());
}

// Parameterized sweep: sustained shifts well past k·sigma are caught across
// baseline levels and shift magnitudes.
class LevelShiftSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LevelShiftSweep, CatchesLargeShifts) {
  const auto [level, shift] = GetParam();
  LevelShiftDetector d(fast_params());
  feed_noise(d, level, 0.02 * level, 100, 13);
  bool alarmed = false;
  for (int i = 0; i < 10 && !alarmed; ++i) {
    alarmed = d.observe(100 + i, level + shift * level).has_value();
  }
  EXPECT_TRUE(alarmed) << "level=" << level << " shift=" << shift;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LevelShiftSweep,
    ::testing::Combine(::testing::Values(1.0, 10.0, 100.0, 1000.0),
                       ::testing::Values(0.5, 2.0, 10.0)));

}  // namespace
}  // namespace gretel::detect
