#include "detect/series_analysis.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace gretel::detect {
namespace {

// analyze_window with a throwaway scratch buffer (the engine reuses one).
WindowVerdict analyze(const util::TimeSeries& ts, double from, double to,
                      double k_sigma = 5.0, double min_abs = 1e-9) {
  std::vector<double> scratch;
  return analyze_window(ts, from, to, scratch, k_sigma, min_abs);
}

util::TimeSeries flat_series(double level, double sigma, int n,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  util::TimeSeries ts;
  for (int i = 0; i < n; ++i) ts.add(i, rng.next_gaussian(level, sigma));
  return ts;
}

TEST(AnalyzeWindow, QuietSeriesNotAnomalous) {
  const auto ts = flat_series(10.0, 0.5, 100, 1);
  const auto v = analyze(ts, 40.0, 60.0);
  EXPECT_FALSE(v.anomalous);
  EXPECT_NEAR(v.window_level, 10.0, 0.5);
  EXPECT_NEAR(v.baseline_level, 10.0, 0.5);
}

TEST(AnalyzeWindow, DetectsSurgeInWindow) {
  auto ts = flat_series(10.0, 0.3, 40, 2);
  for (int i = 40; i < 60; ++i) ts.add(i, 80.0);
  for (int i = 60; i < 100; ++i) ts.add(i, 10.0);
  const auto v = analyze(ts, 40.0, 60.0);
  EXPECT_TRUE(v.anomalous);
  EXPECT_NEAR(v.window_level, 80.0, 1.0);
  EXPECT_NEAR(v.baseline_level, 10.0, 1.0);
}

TEST(AnalyzeWindow, SurgeOutsideWindowNotFlagged) {
  auto ts = flat_series(10.0, 0.3, 40, 3);
  for (int i = 40; i < 60; ++i) ts.add(i, 80.0);
  for (int i = 60; i < 100; ++i) ts.add(i, 10.0);
  // Analysis window over the *quiet* region: the surge elsewhere raises the
  // baseline MAD but the window median is unchanged.
  const auto v = analyze(ts, 70.0, 90.0);
  EXPECT_FALSE(v.anomalous);
}

TEST(AnalyzeWindow, EmptyWindowNotAnomalous) {
  const auto ts = flat_series(10.0, 0.3, 50, 4);
  EXPECT_FALSE(analyze(ts, 200.0, 300.0).anomalous);
}

TEST(AnalyzeWindow, TooFewBaselinePointsNotAnomalous) {
  util::TimeSeries ts;
  ts.add(0.0, 10.0);
  ts.add(1.0, 10.0);
  ts.add(5.0, 99.0);
  EXPECT_FALSE(analyze(ts, 4.0, 6.0).anomalous);
}

TEST(AnalyzeWindow, FlatSeriesWithTinyDriftNotFlagged) {
  // min_abs guard: a perfectly flat baseline has sigma ~ 0; a microscopic
  // offset must not alarm.
  util::TimeSeries ts;
  for (int i = 0; i < 50; ++i) ts.add(i, 5.0);
  for (int i = 50; i < 60; ++i) ts.add(i, 5.0 + 1e-12);
  for (int i = 60; i < 100; ++i) ts.add(i, 5.0);
  EXPECT_FALSE(analyze(ts, 50.0, 60.0, 5.0, 0.5).anomalous);
}

TEST(AnalyzeWindow, DropDetectedAsAnomalous) {
  auto ts = flat_series(1000.0, 5.0, 40, 5);
  for (int i = 40; i < 60; ++i) ts.add(i, 100.0);  // disk free collapsed
  for (int i = 60; i < 100; ++i) ts.add(i, 1000.0);
  const auto v = analyze(ts, 40.0, 60.0);
  EXPECT_TRUE(v.anomalous);
  EXPECT_LT(v.window_level, v.baseline_level);
}

// The window holds 60..69 at level 80; the baseline span before it is
// [0, 60).  `baseline` points at level 10 sit at 59, 58, ... going back.
util::TimeSeries surge_after_baseline(int baseline) {
  util::TimeSeries ts;
  for (int i = 0; i < baseline; ++i) ts.add(59 - i, 10.0 + 0.1 * (i % 3));
  for (int i = 60; i < 70; ++i) ts.add(i, 80.0);
  return ts;
}

TEST(AnalyzeWindow, NineteenBaselinePointsGiveNoRelativeVerdict) {
  const auto v = analyze(surge_after_baseline(19), 60.0, 70.0);
  EXPECT_FALSE(v.anomalous);
  EXPECT_EQ(v.window_samples, 10u);
  EXPECT_EQ(v.window_level, 80.0);
  EXPECT_EQ(v.baseline_level, 0.0);
}

TEST(AnalyzeWindow, TwentyBaselinePointsGiveRelativeVerdict) {
  const auto v = analyze(surge_after_baseline(20), 60.0, 70.0);
  EXPECT_TRUE(v.anomalous);
  EXPECT_NEAR(v.baseline_level, 10.0, 0.2);
}

TEST(AnalyzeWindow, BaselineSpanIncludesItsStartExcludesOlderPoints) {
  // 19 points inside the span, plus one exactly at window_start − 60: that
  // one is in, so the verdict is relative.
  auto at_start = surge_after_baseline(19);
  at_start.add(60.0 - kBaselineSeconds, 10.0);
  EXPECT_TRUE(analyze(at_start, 60.0, 70.0).anomalous);
  // Just before the span start it is out, and 19 points are too few.
  auto before_start = surge_after_baseline(19);
  before_start.add(std::nextafter(60.0 - kBaselineSeconds, -1.0), 10.0);
  for (int t = -200; t < -100; ++t) before_start.add(t, 10.0);
  EXPECT_FALSE(analyze(before_start, 60.0, 70.0).anomalous);
}

TEST(AnalyzeWindow, PointsAfterWindowIgnored) {
  // The surge level persists after the window.  A baseline that read the
  // future would see mostly 80s and call the window normal.
  auto ts = surge_after_baseline(20);
  for (int t = 70; t < 300; ++t) ts.add(t, 80.0);
  const auto v = analyze(ts, 60.0, 70.0);
  EXPECT_TRUE(v.anomalous);
  EXPECT_EQ(v.window_samples, 10u);
  EXPECT_NEAR(v.baseline_level, 10.0, 0.2);
}

// The copy-and-sort formulation: fresh window / baseline vectors and the
// sort-based estimators.  Its verdicts are the contract.
WindowVerdict reference_analyze(const util::TimeSeries& series,
                                double window_start_s, double window_end_s,
                                double k_sigma, double min_abs) {
  std::vector<double> inside;
  std::vector<double> baseline;
  for (const auto& p : series.points()) {
    if (p.t_seconds >= window_start_s && p.t_seconds < window_end_s) {
      inside.push_back(p.value);
    } else if (p.t_seconds >= window_start_s - kBaselineSeconds &&
               p.t_seconds < window_start_s) {
      baseline.push_back(p.value);
    }
  }
  WindowVerdict v;
  v.window_samples = inside.size();
  if (inside.empty()) return v;
  v.window_level = util::median(inside);
  if (baseline.size() < kMinBaselinePoints) return v;
  v.baseline_level = util::median(baseline);
  v.sigma = std::max(util::mad_sigma(baseline), 1e-9);
  const double dev = std::fabs(v.window_level - v.baseline_level);
  v.anomalous = dev > k_sigma * v.sigma && dev > min_abs;
  return v;
}

void expect_bit_identical(const WindowVerdict& got, const WindowVerdict& want,
                          const char* what, std::uint64_t trial) {
  EXPECT_EQ(got.anomalous, want.anomalous) << what << " trial " << trial;
  EXPECT_EQ(got.window_samples, want.window_samples)
      << what << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.window_level),
            std::bit_cast<std::uint64_t>(want.window_level))
      << what << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.baseline_level),
            std::bit_cast<std::uint64_t>(want.baseline_level))
      << what << " trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sigma),
            std::bit_cast<std::uint64_t>(want.sigma))
      << what << " trial " << trial;
}

enum class Values { Continuous, HeavyTies, SignedZeros };

// A seeded random series of `n` points.  Timestamps are 0..n-1, shuffled
// when `shuffled` (analyze_window must not assume time order).
util::TimeSeries random_series(util::Rng& rng, std::size_t n, Values values,
                               bool shuffled) {
  std::vector<double> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = static_cast<double>(i);
  if (shuffled) rng.shuffle(ts);
  util::TimeSeries series;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (values) {
      case Values::Continuous:
        v = rng.next_gaussian(50.0, 10.0);
        break;
      case Values::HeavyTies:
        v = static_cast<double>(rng.next_below(3));  // {0, 1, 2}
        break;
      case Values::SignedZeros:
        // ±0.0 mixed with a few nonzero values of both signs.
        switch (rng.next_below(4)) {
          case 0: v = 0.0; break;
          case 1: v = -0.0; break;
          case 2: v = 1.5; break;
          default: v = -2.5; break;
        }
        break;
    }
    series.add(ts[i], v);
  }
  return series;
}

TEST(AnalyzeWindow, SelectionBitIdenticalToSortingReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(20161212);
  // One scratch buffer across every trial, as the engine reuses it across
  // series and reports: stale contents must never leak into a verdict.
  std::vector<double> scratch(64, 12345.0);
  std::uint64_t trial = 0;
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17,
                               31, 32, 63, 64, 100, 101, 257, 1000};
  for (const auto n : sizes) {
    for (const auto values :
         {Values::Continuous, Values::HeavyTies, Values::SignedZeros}) {
      for (const bool shuffled : {false, true}) {
        const auto series = random_series(rng, n, values, shuffled);
        const double len = static_cast<double>(n);
        // Windows: a random span, an empty one (past the end), one covering
        // every point, one with too few baseline points, and the last ten
        // points (in long series their baseline span starts after the
        // first point).
        const double a = std::floor(rng.next_double() * len);
        const double b = a + std::ceil(rng.next_double() * len * 0.5);
        const double windows[][2] = {{a, b},
                                     {len + 10.0, len + 20.0},
                                     {-kInf, kInf},
                                     {2.0, len - 1.0},
                                     {len - 10.0, len}};
        for (const auto& w : windows) {
          for (const double k_sigma : {5.0, 0.5}) {
            ++trial;
            const auto want =
                reference_analyze(series, w[0], w[1], k_sigma, 1e-9);
            const auto got =
                analyze_window(series, w[0], w[1], scratch, k_sigma, 1e-9);
            expect_bit_identical(got, want, "series", trial);
          }
        }
      }
    }
  }
}

TEST(AnalyzeWindow, SignedZeroLevelsBitIdentical) {
  // Uniform-sign zero blocks: every order statistic is the same zero, so
  // both formulations must reproduce its sign exactly.  The window is the
  // second half, so from n = 40 the first half is a full baseline.
  std::vector<double> scratch;
  for (const double zero : {0.0, -0.0}) {
    for (std::size_t n = 1; n <= 48; ++n) {
      util::TimeSeries series;
      for (std::size_t i = 0; i < n; ++i) {
        series.add(static_cast<double>(i), i % 3 == 2 ? 7.0 : zero);
      }
      const double mid = static_cast<double>(n / 2);
      const double end = static_cast<double>(n);
      expect_bit_identical(analyze_window(series, mid, end, scratch),
                           reference_analyze(series, mid, end, 5.0, 1e-9),
                           "zero block", n);
    }
  }
}

TEST(AbsoluteRules, CpuPegged) {
  EXPECT_TRUE(
      absolute_rule_violation(net::ResourceKind::CpuPct, 95.0).has_value());
  EXPECT_FALSE(
      absolute_rule_violation(net::ResourceKind::CpuPct, 85.0).has_value());
}

TEST(AbsoluteRules, DiskFloor) {
  EXPECT_TRUE(absolute_rule_violation(net::ResourceKind::DiskFreeMb, 512.0)
                  .has_value());
  EXPECT_FALSE(absolute_rule_violation(net::ResourceKind::DiskFreeMb, 5000.0)
                   .has_value());
}

TEST(AbsoluteRules, NetAndDiskIoUnbounded) {
  EXPECT_FALSE(absolute_rule_violation(net::ResourceKind::NetMbps, 1e9)
                   .has_value());
  EXPECT_FALSE(absolute_rule_violation(net::ResourceKind::DiskIoOps, 1e9)
                   .has_value());
}

}  // namespace
}  // namespace gretel::detect
