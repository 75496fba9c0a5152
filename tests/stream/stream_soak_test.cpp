// Streaming soak: sustained overload with wire chaos and monitoring-plane
// chaos riding on top.  The same capture is replayed for many rounds on a
// shifted clock so the stream runs far longer than any single batch, while
// the source ring is held far below the offered backlog.  The assertions
// are the streaming mode's robustness contract:
//
//   * bounded memory — the itemized state footprint goes flat after
//     warmup instead of growing with stream length, and every component
//     respects its cap;
//   * exact shed/loss reconciliation — offered == ingested + shed +
//     queued at every round boundary, and every shed or quarantined
//     record reappears in the detector's loss ledger;
//   * monotone degraded accounting — the degraded-telemetry counters
//     never decrease, and reports spanning loss carry the degraded mark.
//
// (Suite name StreamSoak is in the TSan/ASan CI filters.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "detect/series_analysis.h"
#include "gretel/training.h"
#include "net/chaos.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"

namespace gretel::stream {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training = core::learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

TEST(StreamSoak, BoundedStateUnderSustainedOverloadAndChaos) {
  auto& e = env();

  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = 24;
  wspec.faults = 2;
  wspec.window = SimDuration::seconds(25);
  wspec.seed = 0x50AC;
  const auto workload = make_parallel_workload(e.catalog, wspec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), 0x50ACE8ec);
  const auto base = executor.execute(workload.launches);
  ASSERT_GT(base.size(), 500u);
  const auto span =
      (base.back().ts - base.front().ts) + SimDuration::seconds(5);

  core::Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  opt.run_root_cause = true;
  opt.probed_monitoring = true;
  opt.monitor_chaos.seed = 0x50AC2;
  opt.monitor_chaos.probe_drop_rate = 0.05;
  opt.monitor_chaos.probe_timeout_rate = 0.05;
  // Every bounded-state knob squeezed so the caps genuinely engage.
  opt.config.orphan_timeout_seconds = 2.0;
  StreamOptions stream;
  stream.source_ring = 96;
  stream.inflight_cap = 256;
  stream.report_cap = 32;
  // Slow ticks relative to the offered rate: per-tick arrivals exceed the
  // ring, so the stream sheds continuously — sustained overload, not a
  // transient burst.
  stream.tick_ms = 2000.0;

  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          opt, {}, stream);

  constexpr int kRounds = 24;
  std::vector<std::size_t> bytes_after_round;
  std::vector<std::size_t> metric_points_after_round;
  std::uint64_t prev_losses = 0, prev_orphans = 0, prev_evicted = 0,
                prev_degraded = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Shift the capture onto this round's clock; remap connections so
    // rounds do not pair each other's requests.  Per-round wire chaos
    // quarantines and drops on top of the admission shedding.
    const auto offset = span * round;
    net::ChaosConfig chaos;
    chaos.seed = 0xC4A05 + static_cast<std::uint64_t>(round);
    chaos.drop_rate = 0.10;
    chaos.truncate_rate = 0.02;
    chaos.corrupt_rate = 0.02;
    std::vector<net::WireRecord> degraded;
    net::ChaosTap tap(chaos, [&](const net::WireRecord& r) {
      degraded.push_back(r);
    });
    for (auto rec : base) {
      rec.ts = rec.ts + offset;
      rec.conn_id += static_cast<std::uint32_t>(round) * 1000000u;
      tap.on_record(rec);
    }
    tap.finish();

    double metric_t = (SimTime::epoch() + offset).to_seconds();
    for (const auto& r : degraded) {
      streamer.advance_to(r.ts);
      // A metric sample per simulated second keeps the derived retention
      // window exercised for the whole soak.
      while (r.ts.to_seconds() >= metric_t + 1.0) {
        metric_t += 1.0;
        streamer.on_metric(wire::NodeId(1), net::ResourceKind::CpuPct,
                           metric_t, 10.0 + (round % 3));
      }
      streamer.offer(r);
    }
    // Round boundary: let the stream idle one tick so sweeps run, then
    // audit the ledgers at a quiescent point.
    streamer.advance_to(streamer.watermark() + SimDuration::seconds(3));

    const auto& c = streamer.counters();
    ASSERT_EQ(c.offered, c.ingested + c.shed + streamer.queued())
        << "flow ledger broke in round " << round;

    const auto& analyzer = streamer.analyzer();
    const auto& det = analyzer.detector_stats();
    const auto& guards = analyzer.latency().guard_stats();
    // Loss ledger: every admission shed and every quarantined frame is in
    // the detector's loss count — nothing else is.
    EXPECT_EQ(det.losses_recorded,
              c.shed + analyzer.tap_stats().decode_failures)
        << "round " << round;
    // Degraded accounting only ever grows.
    EXPECT_GE(det.losses_recorded, prev_losses);
    EXPECT_GE(guards.orphans_reaped, prev_orphans);
    EXPECT_GE(guards.inflight_evicted, prev_evicted);
    EXPECT_GE(det.degraded_reports, prev_degraded);
    prev_losses = det.losses_recorded;
    prev_orphans = guards.orphans_reaped;
    prev_evicted = guards.inflight_evicted;
    prev_degraded = det.degraded_reports;

    // Per-component caps hold.
    auto fp = streamer.footprint();
    EXPECT_LE(fp.source_ring_records, 96u);
    EXPECT_LE(fp.pending_requests,
              stream.inflight_cap + 64)  // cap + floor slack
        << "round " << round;
    EXPECT_LE(fp.reports_retained, 32u);
    // Each round loses ~40 responses to drops and shedding, and each
    // leaves its connection open until net::kOpenConnectionHorizon (300 s,
    // about ten rounds here) expires it: the table levels off below 600
    // instead of growing with rounds (~900 by round 24 without expiry).
    EXPECT_LE(fp.tap_connections, 600u) << "round " << round;
    bytes_after_round.push_back(fp.approx_bytes());
    metric_points_after_round.push_back(fp.metric_points);
  }
  streamer.finish();
  const auto& c = streamer.counters();
  EXPECT_EQ(c.offered, c.ingested + c.shed);
  EXPECT_GT(c.shed, 0u) << "overload never engaged — soak is vacuous";
  EXPECT_GT(streamer.analyzer().tap_stats().connections_expired, 0u)
      << "no open connection outlived the horizon — soak too short";
  EXPECT_GE(c.shed_episodes, 1u);

  // The whole point: state is flat in stream length.  Every post-warmup
  // round (and the tick-sampled peak) stays within a small factor of the
  // footprint after round 2, instead of scaling with rounds replayed.
  const auto warmup = bytes_after_round[1];
  ASSERT_GT(warmup, 0u);
  for (std::size_t i = 2; i < bytes_after_round.size(); ++i) {
    EXPECT_LE(bytes_after_round[i], 2 * warmup)
        << "state grew with stream length (round " << i << ")";
  }
  EXPECT_LE(streamer.peak_state_bytes(), 4 * warmup);
  // Absolute sanity ceiling, far below anything an unbounded run reaches.
  EXPECT_LE(streamer.peak_state_bytes(), 32u * 1024 * 1024);

  // Metric retention is derived, not a knob: the store keeps 2 ×
  // kBaselineSeconds behind the newest sample and trims in batches, so
  // the one 1 Hz series never holds more than 1.5 horizons of points.
  // The session spans several horizons, so without retention the count
  // would keep growing with every round.
  const double horizon_s = 2.0 * detect::kBaselineSeconds;
  const auto max_points = static_cast<std::size_t>(1.5 * horizon_s);
  ASSERT_GT(c.metrics, 2 * max_points) << "session too short to test";
  for (std::size_t i = 0; i < metric_points_after_round.size(); ++i) {
    EXPECT_LE(metric_points_after_round[i], max_points)
        << "metric store grew with stream length (round " << i << ")";
  }
  EXPECT_LE(streamer.footprint().metric_points, max_points);

  // Chaos plus shedding must have produced degraded-confidence reports,
  // and the monitoring plane must have seen its own chaos.
  EXPECT_GT(streamer.analyzer().detector_stats().degraded_reports, 0u);
  EXPECT_GT(streamer.analyzer().watcher().probe_stats().drops +
                streamer.analyzer().watcher().probe_stats().timeouts,
            0u);
}

}  // namespace
}  // namespace gretel::stream
