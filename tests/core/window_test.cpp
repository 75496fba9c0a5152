#include "gretel/window.h"

#include <gtest/gtest.h>

#include "gretel/config.h"
#include "util/rng.h"

namespace gretel::core {
namespace {

wire::Event event_with(std::uint16_t api) {
  wire::Event ev;
  ev.api = wire::ApiId(api);
  return ev;
}

TEST(GretelConfig, AlphaFormulaPaperValues) {
  // §7: FPmax = 384, Prate = 150 pps, t = 1 s -> α = 2*max(384,150) = 768.
  GretelConfig config;
  config.fp_max = 384;
  config.p_rate = 150.0;
  EXPECT_EQ(config.alpha(), 768u);
  // β0 = c1·α ≈ 76 (the paper rounds to 80), δ = c2·α ≈ 30.
  EXPECT_EQ(config.beta0(), 76u);
  EXPECT_EQ(config.delta(), 30u);
}

TEST(GretelConfig, HighRateDominatesAlpha) {
  GretelConfig config;
  config.fp_max = 384;
  config.p_rate = 50000.0;
  EXPECT_EQ(config.alpha(), 100000u);
}

TEST(GretelConfig, BetaDeltaNeverZero) {
  GretelConfig config;
  config.fp_max = 2;
  config.p_rate = 1.0;
  EXPECT_GE(config.beta0(), 1u);
  EXPECT_GE(config.delta(), 1u);
}

TEST(DualBuffer, FutureReadySemantics) {
  DualBuffer buf(8);  // α = 8
  for (int i = 0; i < 5; ++i) buf.push(event_with(0));
  // Center 2: future ready once end_seq > 2 + 4.
  EXPECT_FALSE(buf.future_ready(2));
  buf.push(event_with(0));
  buf.push(event_with(0));
  EXPECT_TRUE(buf.future_ready(2));
}

TEST(DualBuffer, FreezeCentersWindow) {
  DualBuffer buf(8);
  for (std::uint16_t i = 0; i < 20; ++i) buf.push(event_with(i));
  WindowColumns cols;
  const auto info = buf.freeze(12, cols);
  // [12-4, 12+4) = events 8..15.
  ASSERT_EQ(cols.size(), 8u);
  EXPECT_EQ(cols.api.front(), 8u);
  EXPECT_EQ(cols.api.back(), 15u);
  EXPECT_EQ(info.first_seq, 8u);
  EXPECT_EQ(info.center_index, 4u);
  EXPECT_EQ(cols.api[info.center_index], 12u);
  EXPECT_EQ(buf.at(info.first_seq + info.center_index).api, wire::ApiId(12));
}

TEST(DualBuffer, FreezeClampsAtStreamStart) {
  DualBuffer buf(8);
  for (std::uint16_t i = 0; i < 6; ++i) buf.push(event_with(i));
  WindowColumns cols;
  const auto info = buf.freeze(1, cols);
  ASSERT_EQ(cols.size(), 5u);  // [0, 5)
  EXPECT_EQ(cols.api.front(), 0u);
  EXPECT_EQ(info.first_seq, 0u);
  EXPECT_EQ(info.center_index, 1u);
  EXPECT_EQ(cols.api[info.center_index], 1u);
}

TEST(DualBuffer, PastAvailableWithin2Alpha) {
  DualBuffer buf(8);  // ring capacity 16
  for (int i = 0; i < 30; ++i) buf.push(event_with(0));
  // first resident seq = 14; center 18 needs past from 14.
  EXPECT_TRUE(buf.past_available(18));
  EXPECT_FALSE(buf.past_available(10));
}

TEST(DualBuffer, FreezeTruncatedWhenPastEvicted) {
  DualBuffer buf(4);  // ring capacity 8
  for (std::uint16_t i = 0; i < 40; ++i) buf.push(event_with(i));
  // Residents: 32..39; center 33 wants [31, 35) but 31 is gone.
  WindowColumns cols;
  const auto info = buf.freeze(33, cols);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols.api.front(), 32u);
  EXPECT_EQ(info.first_seq, 32u);
  EXPECT_EQ(info.center_index, 1u);
}

TEST(DualBuffer, FreezeFillsAlphaColumns) {
  // A window with its past and future fully resident spans exactly α rows,
  // whether or not the caller reads the FreezeInfo.
  DualBuffer buf(4);
  for (int i = 0; i < 8; ++i) buf.push(event_with(0));
  WindowColumns cols;
  buf.freeze(4, cols);
  EXPECT_EQ(cols.size(), 4u);
}

TEST(DualBuffer, StaleFreezeReturnsEmptyInsteadOfWrapping) {
  DualBuffer buf(4);  // ring capacity 8
  for (std::uint16_t i = 0; i < 100; ++i) buf.push(event_with(i));
  // Residents: 92..99.  Center 10 was evicted long ago; `center - first`
  // would wrap to a huge index without the clamp.  The columns still hold
  // an earlier freeze's rows, which a stale freeze must clear.
  WindowColumns cols;
  buf.freeze(95, cols);
  ASSERT_FALSE(cols.size() == 0);
  const auto info = buf.freeze(10, cols);
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(info.center_index, 0u);

  // A resident center still freezes normally.
  buf.freeze(95, cols);
  EXPECT_NE(cols.size(), 0u);

  buf.freeze(0, cols);
  EXPECT_EQ(cols.size(), 0u);

  // A center beyond the newest event has nothing to freeze either.
  buf.freeze(500, cols);
  EXPECT_EQ(cols.size(), 0u);
}

TEST(DualBuffer, ColumnsMirrorResidentEvents) {
  DualBuffer buf(8);
  for (std::uint16_t i = 0; i < 37; ++i) {
    wire::Event ev = event_with(i);
    ev.dir = i % 2 ? wire::Direction::Response : wire::Direction::Request;
    ev.status = i % 5 == 0 ? 500 : 200;
    ev.correlation_id = i % 3 ? 1000u + i : 0u;
    ev.ts = util::SimTime::epoch() + util::SimDuration::millis(7 * i);
    buf.push_stamped(ev, 0);
  }
  WindowColumns cols;
  const auto info = buf.freeze(30, cols);
  ASSERT_EQ(cols.size(), 8u);
  for (std::size_t row = 0; row < cols.size(); ++row) {
    const auto& ev = buf.at(info.first_seq + row);
    EXPECT_EQ(ev.seq, info.first_seq + row);
    EXPECT_EQ(cols.api[row], ev.api.value());
    EXPECT_EQ(cols.err[row], ev.is_error() ? 1 : 0);
    EXPECT_EQ(cols.req[row], ev.is_request() ? 1 : 0);
    EXPECT_EQ(cols.corr[row], ev.correlation_id);
    EXPECT_EQ(cols.ts_s[row], ev.ts.to_seconds());
  }
}

TEST(DualBuffer, EvictionBoundaryClampAndStaleCenter) {
  DualBuffer buf(8);  // ring capacity 16, half-window 4
  // Cumulative losses grow by one every 4 events.
  for (std::uint16_t i = 0; i < 24; ++i) buf.push(event_with(i), i / 4);
  // Residents: 8..23.  Center 10 wants [6, 14): the past half loses 6 and 7
  // to eviction, so the window starts at the oldest resident.
  WindowColumns cols;
  auto info = buf.freeze(10, cols);
  ASSERT_EQ(cols.size(), 6u);  // [8, 14)
  EXPECT_EQ(info.first_seq, 8u);
  EXPECT_EQ(info.center_index, 2u);
  EXPECT_EQ(cols.api[info.center_index], 10u);
  EXPECT_TRUE(info.clamped_front);
  EXPECT_EQ(info.losses, 13u / 4 - 8u / 4);  // loss(13) - loss(8)

  // Exactly at the boundary: center 12 wants [8, 16), all resident.
  info = buf.freeze(12, cols);
  ASSERT_EQ(cols.size(), 8u);
  EXPECT_EQ(info.first_seq, 8u);
  EXPECT_EQ(info.center_index, 4u);
  EXPECT_FALSE(info.clamped_front);
  EXPECT_EQ(info.losses, 15u / 4 - 8u / 4);

  // The oldest resident as center: clamped, center at row 0.
  info = buf.freeze(8, cols);
  ASSERT_EQ(cols.size(), 4u);  // [8, 12)
  EXPECT_EQ(info.center_index, 0u);
  EXPECT_TRUE(info.clamped_front);

  // One past the boundary: center 7 is evicted, the freeze is stale.
  info = buf.freeze(7, cols);
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(info.center_index, 0u);
  EXPECT_EQ(info.losses, 0u);
  EXPECT_FALSE(info.clamped_front);
}

// The trigger's re-anchoring scan reads the ring before anything freezes:
// last_error_before must find the row a scan of the frozen error column
// over [center − reach, center) finds, with the center clamped to the last
// row, on windows clamped at the front by eviction and on windows whose
// future half never arrived (a deadline-forced report).  locate() must
// describe exactly what freeze() fills.
TEST(DualBuffer, LastErrorBeforeMatchesFrozenScan) {
  util::Rng rng(20161212);
  std::size_t clamped_hits = 0, forced_hits = 0, misses = 0, reach_cut = 0;
  for (const std::size_t alpha : {1u, 2u, 3u, 8u, 16u, 200u}) {
    for (const std::size_t reach : {0u, 1u, 5u, 96u}) {
      DualBuffer buf(alpha);
      WindowColumns cols;
      const double p_error = rng.chance(0.5) ? 0.05 : 0.3;
      const std::uint64_t total = 3 * alpha + 40;
      for (std::uint64_t pushed = 1; pushed <= total; ++pushed) {
        wire::Event ev = event_with(static_cast<std::uint16_t>(pushed % 50));
        ev.status = rng.chance(p_error) ? 500 : 200;
        ev.dir = wire::Direction::Response;
        buf.push(ev, pushed / 7);
        // Every push for small windows, every α/8-th for large ones.
        if (pushed % std::max<std::size_t>(1, alpha / 8) != 0) continue;
        const std::uint64_t end = buf.end_seq();
        const std::uint64_t first_center = end > 2 * alpha + 2
                                               ? end - 2 * alpha - 2
                                               : 0;
        for (std::uint64_t center = first_center; center < end + 2;
             ++center) {
          SCOPED_TRACE("alpha " + std::to_string(alpha) + " reach " +
                       std::to_string(reach) + " end " + std::to_string(end) +
                       " center " + std::to_string(center));
          const auto window = buf.locate(center);
          const auto info = buf.freeze(center, cols);
          ASSERT_EQ(window.rows, cols.size());
          EXPECT_EQ(window.first_seq, info.first_seq);
          EXPECT_EQ(window.center_index, info.center_index);
          EXPECT_EQ(window.clamped_front, info.clamped_front);
          EXPECT_EQ(window.losses, info.losses);
          if (window.rows == 0) continue;

          const std::size_t row = std::min(window.center_index,
                                           window.rows - 1);
          const std::size_t scan_lo = row > reach ? row - reach : 0;
          if (scan_lo > 0) ++reach_cut;
          std::optional<std::size_t> want;
          for (std::size_t r = row; r-- > scan_lo;) {
            if (cols.err[r]) {
              want = r;
              break;
            }
          }
          const auto got = buf.last_error_before(window, reach);
          ASSERT_EQ(got.has_value(), want.has_value());
          if (!want) {
            ++misses;
            continue;
          }
          EXPECT_EQ(*got - window.first_seq, *want);
          if (window.clamped_front) ++clamped_hits;
          if (!buf.future_ready(center)) ++forced_hits;
        }
      }
    }
  }
  // Not vacuous: each kind of window found an error, some found none, and
  // some scans stopped at `reach` before the window's front.
  EXPECT_GT(clamped_hits, 0u);
  EXPECT_GT(forced_hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(reach_cut, 0u);
}

// Property: for any α and stream length, the frozen window contains at most
// α events and always includes the center (when resident).
class DualBufferProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DualBufferProperty, WindowBoundsInvariant) {
  const auto [alpha, n] = GetParam();
  DualBuffer buf(static_cast<std::size_t>(alpha));
  for (std::uint16_t i = 0; i < n; ++i) buf.push(event_with(i));
  WindowColumns cols;
  for (std::uint64_t center = 0; center < static_cast<std::uint64_t>(n);
       ++center) {
    const auto info = buf.freeze(center, cols);
    EXPECT_LE(cols.size(), static_cast<std::size_t>(alpha));
    if (cols.size() != 0 && info.center_index < cols.size()) {
      EXPECT_EQ(cols.api[info.center_index], center);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DualBufferProperty,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 7, 16, 64)));

}  // namespace
}  // namespace gretel::core
