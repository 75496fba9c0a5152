#include "detect/latency_tracker.h"

#include <gtest/gtest.h>

namespace gretel::detect {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::ApiId;
using wire::ApiKind;
using wire::Direction;
using wire::Event;

Event rest_event(ApiId api, Direction dir, std::uint32_t conn,
                 SimTime ts) {
  Event ev;
  ev.api = api;
  ev.kind = ApiKind::Rest;
  ev.dir = dir;
  ev.conn_id = conn;
  ev.ts = ts;
  ev.status = dir == Direction::Response ? 200 : 0;
  return ev;
}

Event rpc_event(ApiId api, Direction dir, std::uint64_t msg,
                SimTime ts) {
  Event ev;
  ev.api = api;
  ev.kind = ApiKind::Rpc;
  ev.dir = dir;
  ev.msg_id = msg;
  ev.ts = ts;
  ev.status = dir == Direction::Response ? 200 : 0;
  return ev;
}

LevelShiftParams fast_params() {
  LevelShiftParams p;
  p.min_baseline = 8;
  p.confirm = 3;
  p.sigma_floor = 0.1;
  p.cooldown_seconds = 0.0;
  return p;
}

LatencyTracker fast_tracker() { return LatencyTracker(fast_params()); }

TEST(LatencyTracker, PairsRestByConnection) {
  auto tracker = fast_tracker();
  const ApiId api(1);
  EXPECT_FALSE(tracker.observe(rest_event(api, Direction::Request, 7,
                                          SimTime(0)))
                   .has_value());
  const auto response_ts = SimTime::epoch() + SimDuration::millis(12);
  const auto sample = tracker.observe(
      rest_event(api, Direction::Response, 7, response_ts));
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->api, api);
  EXPECT_EQ(sample->when, response_ts);
  EXPECT_NEAR(sample->latency_ms, 12.0, 1e-9);
  EXPECT_FALSE(sample->alarm.has_value());
  EXPECT_EQ(tracker.pending(), 0u);
  EXPECT_EQ(tracker.samples(), 1u);
}

TEST(LatencyTracker, PairsRpcByMessageId) {
  auto tracker = fast_tracker();
  const ApiId api(2);
  tracker.observe(rpc_event(api, Direction::Request, 99, SimTime(0)));
  const auto sample = tracker.observe(rpc_event(
      api, Direction::Response, 99,
      SimTime::epoch() + SimDuration::millis(30)));
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->api, api);
  EXPECT_NEAR(sample->latency_ms, 30.0, 1e-9);
}

TEST(LatencyTracker, InterleavedConnectionsPairCorrectly) {
  auto tracker = fast_tracker();
  const ApiId api(3);
  tracker.observe(rest_event(api, Direction::Request, 1, SimTime(0)));
  tracker.observe(rest_event(
      api, Direction::Request, 2,
      SimTime::epoch() + SimDuration::millis(1)));
  const auto conn2 = tracker.observe(rest_event(
      api, Direction::Response, 2,
      SimTime::epoch() + SimDuration::millis(5)));
  const auto conn1 = tracker.observe(rest_event(
      api, Direction::Response, 1,
      SimTime::epoch() + SimDuration::millis(20)));
  ASSERT_TRUE(conn2.has_value());
  ASSERT_TRUE(conn1.has_value());
  EXPECT_EQ(tracker.samples(), 2u);
  EXPECT_NEAR(conn2->latency_ms, 4.0, 1e-9);
  EXPECT_NEAR(conn1->latency_ms, 20.0, 1e-9);
}

TEST(LatencyTracker, OrphanResponseIgnored) {
  auto tracker = fast_tracker();
  EXPECT_FALSE(tracker
                   .observe(rest_event(ApiId(4), Direction::Response, 5,
                                       SimTime(0)))
                   .has_value());
  EXPECT_EQ(tracker.samples(), 0u);
}

TEST(LatencyTracker, UnansweredRequestStaysPending) {
  auto tracker = fast_tracker();
  tracker.observe(rest_event(ApiId(5), Direction::Request, 6, SimTime(0)));
  EXPECT_EQ(tracker.pending(), 1u);
}

TEST(LatencyTracker, SeriesSeparatedPerApi) {
  auto tracker = fast_tracker();
  tracker.observe(rest_event(ApiId(1), Direction::Request, 1, SimTime(0)));
  const auto rest = tracker.observe(rest_event(
      ApiId(1), Direction::Response, 1,
      SimTime::epoch() + SimDuration::millis(5)));
  tracker.observe(rpc_event(ApiId(2), Direction::Request, 1, SimTime(0)));
  const auto rpc = tracker.observe(rpc_event(
      ApiId(2), Direction::Response, 1,
      SimTime::epoch() + SimDuration::millis(9)));
  // A REST conn_id and an RPC msg_id with the same value never pair with
  // each other: each response closes its own API's request.
  ASSERT_TRUE(rest.has_value());
  ASSERT_TRUE(rpc.has_value());
  EXPECT_EQ(rest->api, ApiId(1));
  EXPECT_NEAR(rest->latency_ms, 5.0, 1e-9);
  EXPECT_EQ(rpc->api, ApiId(2));
  EXPECT_NEAR(rpc->latency_ms, 9.0, 1e-9);
  EXPECT_EQ(tracker.samples(), 2u);
}

TEST(LatencyTracker, AlarmOnSustainedLatencyShift) {
  auto tracker = fast_tracker();
  const ApiId api(6);
  std::uint32_t conn = 1;
  auto exchange = [&](double t_s, double latency_ms) {
    const auto t0 = SimTime::epoch() +
                    SimDuration::nanos(static_cast<std::int64_t>(t_s * 1e9));
    tracker.observe(rest_event(api, Direction::Request, conn, t0));
    const auto sample = tracker.observe(rest_event(
        api, Direction::Response, conn++,
        t0 + SimDuration::nanos(
                 static_cast<std::int64_t>(latency_ms * 1e6))));
    EXPECT_TRUE(sample.has_value());
    return sample;
  };

  for (int i = 0; i < 40; ++i) {
    ASSERT_FALSE(exchange(i, 10.0 + (i % 3) * 0.3)->alarm.has_value());
  }
  // 50 ms injected latency (the paper's tc experiment).
  std::optional<LatencySample> shifted;
  for (int i = 0; i < 10 && !(shifted && shifted->alarm); ++i) {
    shifted = exchange(100 + i, 60.0);
  }
  ASSERT_TRUE(shifted.has_value());
  ASSERT_TRUE(shifted->alarm.has_value());
  EXPECT_EQ(shifted->api, api);
  EXPECT_GT(shifted->alarm->magnitude, 30.0);
  EXPECT_EQ(shifted->alarm->direction, ShiftDirection::Up);
}

TEST(LatencyTracker, NegativeGapClampedNotPoisoned) {
  auto tracker = fast_tracker();
  const ApiId api(7);
  // Capture clock skew: the response's tap timestamp regressed behind the
  // request's.  The exchange is real — keep the sample, clamp the gap.
  tracker.observe(rest_event(api, Direction::Request, 1,
                             SimTime::epoch() + SimDuration::millis(10)));
  const auto sample = tracker.observe(rest_event(
      api, Direction::Response, 1,
      SimTime::epoch() + SimDuration::millis(2)));
  ASSERT_TRUE(sample.has_value());
  EXPECT_NEAR(sample->latency_ms, 0.0, 1e-9);
  EXPECT_EQ(tracker.guard_stats().clamped_negative, 1u);
  EXPECT_EQ(tracker.samples(), 1u);
}

TEST(LatencyTracker, LateResponseRejectedAtPairingTime) {
  auto tracker = fast_tracker();
  tracker.set_orphan_timeout_seconds(1.0);
  const ApiId api(8);
  tracker.observe(rest_event(api, Direction::Request, 1, SimTime(0)));
  // The response limps in two seconds later: past the orphan deadline, so
  // the latency reflects the degraded tap, not the service.
  const auto sample = tracker.observe(rest_event(
      api, Direction::Response, 1,
      SimTime::epoch() + SimDuration::seconds(2)));
  EXPECT_FALSE(sample.has_value());
  EXPECT_EQ(tracker.samples(), 0u);
  EXPECT_EQ(tracker.guard_stats().orphans_reaped, 1u);
  EXPECT_EQ(tracker.pending(), 0u);  // the pending slot is reclaimed either way
}

TEST(LatencyTracker, OnTimeResponseAdmittedUnderTimeout) {
  auto tracker = fast_tracker();
  tracker.set_orphan_timeout_seconds(1.0);
  const ApiId api(9);
  tracker.observe(rest_event(api, Direction::Request, 1, SimTime(0)));
  tracker.observe(rest_event(api, Direction::Response, 1,
                             SimTime::epoch() + SimDuration::millis(500)));
  EXPECT_EQ(tracker.samples(), 1u);
  EXPECT_EQ(tracker.guard_stats().orphans_reaped, 0u);
}

TEST(LatencyTracker, SweepReclaimsStalePendingRequests) {
  auto tracker = fast_tracker();
  tracker.set_orphan_timeout_seconds(0.5);
  const ApiId api(10);
  // One request whose response was lost by the tap...
  tracker.observe(rest_event(api, Direction::Request, 1, SimTime(0)));
  // ...followed by enough traffic (one sweep stride) much later.  The sweep
  // reclaims the stale slot; the recent requests stay pending.
  for (std::uint32_t i = 0; i < 63; ++i) {
    tracker.observe(rest_event(
        api, Direction::Request, 100 + i,
        SimTime::epoch() + SimDuration::seconds(10) +
            SimDuration::millis(i)));
  }
  EXPECT_EQ(tracker.guard_stats().orphans_reaped, 1u);
  EXPECT_EQ(tracker.pending(), 63u);
}

TEST(LatencyTracker, TimeoutZeroKeepsLegacyBehavior) {
  auto tracker = fast_tracker();  // timeout never armed
  const ApiId api(11);
  tracker.observe(rest_event(api, Direction::Request, 1, SimTime(0)));
  // Arbitrarily late responses still pair when the reaper is off.
  tracker.observe(rest_event(api, Direction::Response, 1,
                             SimTime::epoch() + SimDuration::seconds(600)));
  EXPECT_EQ(tracker.samples(), 1u);
  EXPECT_EQ(tracker.guard_stats().orphans_reaped, 0u);
}

TEST(LatencyTracker, InflightFifoStaysBoundedByPending) {
  // A stream that answers every request before the next one keeps one
  // request pending at most.  The in-flight FIFO must track that, not the
  // cap: its dead entries are reclaimed well before cap-sized growth.
  auto tracker = fast_tracker();
  tracker.set_inflight_cap(4096);
  const ApiId api(12);
  SimTime ts = SimTime::epoch();
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const std::uint32_t conn = 1 + i % 50;
    tracker.observe(rest_event(api, Direction::Request, conn, ts));
    ASSERT_LE(tracker.inflight_queue(), 2 * tracker.pending() + 64)
        << "after request " << i;
    ts += SimDuration::millis(1);
    tracker.observe(rest_event(api, Direction::Response, conn, ts));
    ASSERT_LE(tracker.inflight_queue(), 2 * tracker.pending() + 64)
        << "after response " << i;
  }
  EXPECT_EQ(tracker.samples(), 10000u);
  EXPECT_EQ(tracker.guard_stats().inflight_evicted, 0u);
}

}  // namespace
}  // namespace gretel::detect
