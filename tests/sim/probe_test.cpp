// Probe engine and monitoring-chaos unit tests: breaker lifecycle, flap
// hysteresis, deterministic backoff jitter, strict zero-rate no-op,
// monotone nesting of the affected sets across rates, and exact
// audit ↔ counter reconciliation.
#include "monitor/probe.h"

#include <gtest/gtest.h>

#include "monitor/metrics.h"
#include "stack/deployment.h"

namespace gretel::monitor {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::NodeId;

SimTime at_s(int s) { return SimTime::epoch() + SimDuration::seconds(s); }

TEST(ProbeEngine, ZeroRatesAreStrictNoOp) {
  MonitorChaosConfig chaos;  // all rates zero
  ASSERT_FALSE(chaos.enabled());
  ProbeEngine engine(ProbeConfig{}, chaos);

  for (int s = 0; s < 20; ++s) {
    const bool truth = s % 3 != 0;
    const auto obs = engine.probe(NodeId(1), "nova-compute", truth, at_s(s));
    EXPECT_TRUE(obs.usable);
    EXPECT_EQ(obs.up, truth);
    EXPECT_EQ(obs.evidence, EvidenceStatus::Confirmed);
    EXPECT_FALSE(obs.flap_held);
    EXPECT_DOUBLE_EQ(obs.elapsed_ms, 0.0);
  }
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.probes, 20u);
  EXPECT_EQ(stats.attempts, 20u);  // never a retry
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.flap_suppressed, 0u);
  // The injector never drew and never audited.
  EXPECT_TRUE(engine.chaos().audit().empty());
}

TEST(ProbeEngine, BreakerOpensShedsAndHalfOpens) {
  ProbeConfig config;
  config.retries = 0;
  config.breaker_open_after = 3;
  config.breaker_open_polls = 2;
  MonitorChaosConfig chaos;
  chaos.seed = 5;
  chaos.probe_drop_rate = 1.0;  // every attempt is lost
  ProbeEngine engine(config, chaos);

  // Three consecutive failed probes trip the breaker...
  for (int s = 0; s < 3; ++s) {
    const auto obs = engine.probe(NodeId(0), "mysqld", true, at_s(s));
    EXPECT_FALSE(obs.usable);
    EXPECT_EQ(obs.evidence, EvidenceStatus::Unknown);
    EXPECT_GT(obs.elapsed_ms, 0.0);  // the deadline was waited out
  }
  EXPECT_EQ(engine.stats().breaker_trips, 1u);
  EXPECT_EQ(engine.stats().probe_failures, 3u);

  // ...then two polls are shed at zero probe cost...
  for (int s = 3; s < 5; ++s) {
    const auto obs = engine.probe(NodeId(0), "mysqld", true, at_s(s));
    EXPECT_FALSE(obs.usable);
    EXPECT_DOUBLE_EQ(obs.elapsed_ms, 0.0);
  }
  EXPECT_EQ(engine.stats().breaker_skips, 2u);

  // ...and the half-open trial gets exactly one attempt, whose failure
  // re-opens the breaker immediately (a second trip).
  const auto attempts_before = engine.stats().attempts;
  engine.probe(NodeId(0), "mysqld", true, at_s(5));
  EXPECT_EQ(engine.stats().attempts, attempts_before + 1);
  EXPECT_EQ(engine.stats().breaker_trips, 2u);
}

TEST(ProbeEngine, BreakerRecoversThroughHalfOpenTrial) {
  ProbeConfig config;
  config.retries = 0;
  config.breaker_open_after = 1;
  config.breaker_open_polls = 2;
  MonitorChaosConfig chaos;
  // Declarative wedge: the node's agent hangs every probe until t=1s.
  chaos.agent_outages.push_back(
      {NodeId(2), SimTime::epoch(), at_s(1), /*wedged=*/true});
  ProbeEngine engine(config, chaos);

  engine.probe(NodeId(2), "ntpd", true, at_s(0));  // wedged → failure → open
  EXPECT_EQ(engine.stats().breaker_trips, 1u);
  engine.probe(NodeId(2), "ntpd", true, at_s(1));  // shed
  engine.probe(NodeId(2), "ntpd", true, at_s(2));  // shed
  EXPECT_EQ(engine.stats().breaker_skips, 2u);

  // Outage over: the half-open trial succeeds and the breaker closes.
  const auto trial = engine.probe(NodeId(2), "ntpd", true, at_s(3));
  EXPECT_TRUE(trial.usable);
  EXPECT_EQ(trial.evidence, EvidenceStatus::Confirmed);
  const auto next = engine.probe(NodeId(2), "ntpd", true, at_s(4));
  EXPECT_TRUE(next.usable);
  EXPECT_EQ(engine.stats().breaker_trips, 1u);  // no re-trip
}

TEST(ProbeEngine, FlapHysteresisHoldsUntilConsecutiveAgreement) {
  ProbeConfig config;
  config.flap_hysteresis = 3;
  ProbeEngine engine(config, MonitorChaosConfig{});

  // A one-poll blip: down once, then up again — never reported down.
  auto obs = engine.probe(NodeId(1), "glance-api", false, at_s(0));
  EXPECT_TRUE(obs.up);  // held at the old reported state
  EXPECT_TRUE(obs.flap_held);
  EXPECT_EQ(obs.evidence, EvidenceStatus::Suspected);
  obs = engine.probe(NodeId(1), "glance-api", true, at_s(1));
  EXPECT_TRUE(obs.up);
  EXPECT_FALSE(obs.flap_held);
  EXPECT_EQ(engine.stats().flap_suppressed, 1u);

  // A sustained outage: reported down exactly at the 3rd agreeing poll.
  obs = engine.probe(NodeId(1), "glance-api", false, at_s(2));
  EXPECT_TRUE(obs.up && obs.flap_held);
  obs = engine.probe(NodeId(1), "glance-api", false, at_s(3));
  EXPECT_TRUE(obs.up && obs.flap_held);
  obs = engine.probe(NodeId(1), "glance-api", false, at_s(4));
  EXPECT_FALSE(obs.up);
  EXPECT_FALSE(obs.flap_held);
  EXPECT_EQ(engine.stats().flap_suppressed, 3u);
}

TEST(ProbeEngine, BackoffIsBoundedAndSeedReproducible) {
  ProbeConfig config;
  config.timeout_ms = 50.0;
  config.retries = 2;
  config.backoff_base_ms = 10.0;
  config.backoff_cap_ms = 15.0;
  config.breaker_open_after = 100;  // keep the breaker out of this test
  MonitorChaosConfig chaos;
  chaos.seed = 42;
  chaos.probe_timeout_rate = 1.0;  // every attempt times out

  ProbeEngine a(config, chaos);
  ProbeEngine b(config, chaos);
  for (int s = 0; s < 8; ++s) {
    const auto oa = a.probe(NodeId(3), "rabbitmq-server", true, at_s(s));
    const auto ob = b.probe(NodeId(3), "rabbitmq-server", true, at_s(s));
    // Same seed, same target, same tick → the exact same retry timeline.
    EXPECT_DOUBLE_EQ(oa.elapsed_ms, ob.elapsed_ms);
    if (!oa.usable && oa.elapsed_ms > 0.0) {
      // 3 deadlines + backoff(0) ∈ [5, 10) + backoff(1) ∈ [7.5, 15).
      EXPECT_GE(oa.elapsed_ms, 3 * 50.0 + 0.5 * 10.0 + 0.5 * 15.0);
      EXPECT_LT(oa.elapsed_ms, 3 * 50.0 + 10.0 + 15.0);
    }
  }
}

TEST(MonitorChaos, AffectedSetsNestAcrossRates) {
  // A probe afflicted at a low rate is afflicted at every higher rate
  // (same seed): loss sweeps degrade monotonically, never erratically.
  MonitorChaosConfig lo;
  lo.seed = 7;
  lo.probe_drop_rate = 0.05;
  lo.probe_timeout_rate = 0.05;
  MonitorChaosConfig hi = lo;
  hi.probe_drop_rate = 0.25;
  hi.probe_timeout_rate = 0.25;

  MonitorChaos chaos_lo(lo);
  MonitorChaos chaos_hi(hi);
  int afflicted_lo = 0;
  int afflicted_hi = 0;
  for (int s = 0; s < 400; ++s) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto fate_lo = chaos_lo.probe_fate(NodeId(1), "nova-api",
                                               at_s(s).nanos(), attempt, true);
      const auto fate_hi = chaos_hi.probe_fate(NodeId(1), "nova-api",
                                               at_s(s).nanos(), attempt, true);
      const bool lo_hit = fate_lo.dropped || fate_lo.timed_out;
      const bool hi_hit = fate_hi.dropped || fate_hi.timed_out;
      if (lo_hit) {
        EXPECT_TRUE(hi_hit) << "tick " << s << " attempt " << attempt;
      }
      afflicted_lo += lo_hit;
      afflicted_hi += hi_hit;
    }
  }
  EXPECT_GT(afflicted_lo, 0);
  EXPECT_GT(afflicted_hi, afflicted_lo);
}

TEST(MonitorChaos, AuditReconcilesExactlyWithEngineCounters) {
  ProbeConfig config;
  config.retries = 1;
  MonitorChaosConfig chaos;
  chaos.seed = 11;
  chaos.probe_drop_rate = 0.10;
  chaos.probe_timeout_rate = 0.10;
  chaos.false_positive_rate = 0.05;
  ProbeEngine engine(config, chaos);

  for (int s = 0; s < 300; ++s) {
    engine.probe(NodeId(0), "mysqld", true, at_s(s));
    engine.probe(NodeId(1), "nova-compute", true, at_s(s));
  }

  const auto& c = engine.chaos();
  std::uint64_t by_action[7] = {};
  for (const auto& inj : c.audit())
    ++by_action[static_cast<std::size_t>(inj.action)];
  for (std::size_t a = 0; a < 7; ++a) {
    EXPECT_EQ(by_action[a], c.count(static_cast<MonitorChaosAction>(a)));
  }

  // Every dropped attempt and every timed-out attempt is one audited
  // injection — no silent losses, no phantom entries.
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.drops, c.count(MonitorChaosAction::ProbeDrop));
  EXPECT_EQ(stats.timeouts, c.count(MonitorChaosAction::ProbeTimeout) +
                                c.count(MonitorChaosAction::ProbeDelay));
  EXPECT_EQ(stats.false_results, c.count(MonitorChaosAction::FalsePositive) +
                                     c.count(MonitorChaosAction::FalseNegative));
  EXPECT_GT(stats.drops + stats.timeouts, 0u);
}

TEST(MonitorChaos, FrozenMetricStreamsReconcileWithAudit) {
  auto deployment = stack::Deployment::standard(1);
  MonitorChaosConfig chaos;
  chaos.seed = 3;
  chaos.metric_freeze_rate = 0.02;
  chaos.metric_freeze_seconds = 5;

  ResourceMonitor monitor(&deployment, SimDuration::seconds(1), 1, chaos);
  MetricsStore store;
  monitor.sample_range(SimTime::epoch(), at_s(60), store);

  const auto expected =
      60u * deployment.node_ids().size() * net::kResourceKinds;
  ASSERT_NE(monitor.chaos(), nullptr);
  const auto frozen = monitor.chaos()->count(MonitorChaosAction::MetricFreeze);
  EXPECT_GT(frozen, 0u);
  EXPECT_EQ(monitor.frozen_samples(), frozen);
  EXPECT_EQ(store.total_samples(), expected - frozen);
}

TEST(MonitorChaos, ZeroRateChaosMonitorMatchesPlainMonitor) {
  auto deployment = stack::Deployment::standard(1);
  ResourceMonitor plain(&deployment, SimDuration::seconds(1), 9);
  ResourceMonitor chaotic(&deployment, SimDuration::seconds(1), 9,
                          MonitorChaosConfig{});  // all rates zero
  MetricsStore a;
  MetricsStore b;
  plain.sample_range(SimTime::epoch(), at_s(20), a);
  chaotic.sample_range(SimTime::epoch(), at_s(20), b);

  ASSERT_EQ(a.total_samples(), b.total_samples());
  for (auto id : deployment.node_ids()) {
    for (std::size_t k = 0; k < net::kResourceKinds; ++k) {
      const auto kind = static_cast<net::ResourceKind>(k);
      const auto* sa = a.series(id, kind);
      const auto* sb = b.series(id, kind);
      ASSERT_NE(sa, nullptr);
      ASSERT_NE(sb, nullptr);
      ASSERT_EQ(sa->size(), sb->size());
      for (std::size_t i = 0; i < sa->size(); ++i) {
        EXPECT_EQ(sa->points()[i].t_seconds, sb->points()[i].t_seconds);
        EXPECT_EQ(sa->points()[i].value, sb->points()[i].value);
      }
    }
  }
  EXPECT_EQ(chaotic.frozen_samples(), 0u);
}

TEST(MonitorChaos, WatermarkTracksNewestSample) {
  MetricsStore store;
  EXPECT_FALSE(
      store.watermark_s(NodeId(1), net::ResourceKind::CpuPct).has_value());
  store.record(NodeId(1), net::ResourceKind::CpuPct, 3.0, 10.0);
  store.record(NodeId(1), net::ResourceKind::CpuPct, 7.0, 11.0);
  const auto mark = store.watermark_s(NodeId(1), net::ResourceKind::CpuPct);
  ASSERT_TRUE(mark.has_value());
  EXPECT_DOUBLE_EQ(*mark, 7.0);
}

}  // namespace
}  // namespace gretel::monitor
