#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace gretel::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Quantile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, MedianOddEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 2.0);
}

TEST(MadSigma, ConsistentWithNormalScale) {
  // For {1..7}, median = 4, |dev| = {3,2,1,0,1,2,3}, MAD = 2.
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7};
  EXPECT_NEAR(mad_sigma(v), 1.4826 * 2.0, 1e-12);
}

TEST(MadSigma, RobustToOutlier) {
  std::vector<double> v{10, 10, 10, 10, 10, 10, 10, 1000};
  EXPECT_DOUBLE_EQ(mad_sigma(v), 0.0);  // majority identical
}

// The in-place (nth_element) estimators must be *bit-identical* to the
// sort-based ones — the level-shift detector switched to them, and its
// alarm stream may not move by even one ULP.
TEST(InplaceEstimators, BitIdenticalToSortedAcrossSizes) {
  Rng rng(0x57A7);
  for (std::size_t n = 0; n <= 130; ++n) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.next_double() * 100.0 - 50.0;
    std::vector<double> scratch = xs;
    const double med = median(xs);
    const double med_ip = median_inplace(scratch);
    EXPECT_EQ(med, med_ip) << "n=" << n;  // EQ, not NEAR: bit identity
    scratch = xs;
    EXPECT_EQ(mad_sigma(xs), mad_sigma_inplace(scratch)) << "n=" << n;
  }
}

TEST(InplaceEstimators, DuplicatesAndConstants) {
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> xs(n, 7.25);
    std::vector<double> scratch = xs;
    EXPECT_EQ(median(xs), median_inplace(scratch));
    scratch = xs;
    EXPECT_EQ(mad_sigma(xs), mad_sigma_inplace(scratch));
  }
}

TEST(InplaceEstimators, SignedZeroInterpolation) {
  // Even-size interpolation touches both middle order statistics; the
  // in-place variant must reproduce the same signed zero.
  std::vector<double> xs{-0.0, 0.0};
  std::vector<double> scratch = xs;
  const double a = median(xs);
  const double b = median_inplace(scratch);
  EXPECT_EQ(std::signbit(a), std::signbit(b));
  EXPECT_EQ(a, b);
}

TEST(InplaceEstimators, MixedSignZeroTiesBitIdentical) {
  // Ties between +0.0 and -0.0 at the median ranks: sort and selection may
  // leave either zero there, yet both estimators must return the same bits
  // (+0.0) for every arrangement.
  Rng rng(0x2E80);
  for (std::size_t n = 1; n <= 200; ++n) {
    std::vector<double> xs(n);
    for (auto& x : xs) {
      const auto pick = rng.next_below(5);
      x = pick == 4 ? 3.0 : pick % 2 ? -0.0 : 0.0;
    }
    std::vector<double> scratch = xs;
    const double a = median(xs);
    const double b = median_inplace(scratch);
    EXPECT_EQ(std::signbit(a), std::signbit(b)) << "n=" << n;
    EXPECT_EQ(a, b) << "n=" << n;
    if (a == 0.0) {
      EXPECT_FALSE(std::signbit(a)) << "n=" << n;
    }
    scratch = xs;
    EXPECT_EQ(std::signbit(mad_sigma(xs)),
              std::signbit(mad_sigma_inplace(scratch)));
  }
  const std::vector<double> neg_zeros(7, -0.0);
  EXPECT_FALSE(std::signbit(median(neg_zeros)));
}

TEST(InplaceEstimators, EmptyInput) {
  std::vector<double> empty;
  EXPECT_EQ(median_inplace(empty), 0.0);
  EXPECT_EQ(mad_sigma_inplace(empty), 0.0);
}

TEST(EmpiricalCdf, Evaluate) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.evaluate(10.0), 1.0);
}

TEST(EmpiricalCdf, PointsMonotone) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0});
  const auto pts = cdf.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts[2].second, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].first, pts[i].first);
    EXPECT_LT(pts[i - 1].second, pts[i].second);
  }
}

TEST(TimeSeries, AddAndValues) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.values(), (std::vector<double>{10.0, 20.0}));
  ts.clear();
  EXPECT_TRUE(ts.empty());
}

}  // namespace
}  // namespace gretel::util
