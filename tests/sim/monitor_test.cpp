#include "monitor/metrics.h"
#include "monitor/watcher.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace gretel::monitor {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::NodeId;
using wire::ServiceKind;

TEST(MetricsStore, RecordAndLookup) {
  MetricsStore store;
  store.record(NodeId(1), net::ResourceKind::CpuPct, 1.0, 42.0);
  store.record(NodeId(1), net::ResourceKind::CpuPct, 2.0, 43.0);
  const auto* series = store.series(NodeId(1), net::ResourceKind::CpuPct);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2u);
  EXPECT_EQ(store.total_samples(), 2u);
}

TEST(MetricsStore, MissingSeriesIsNull) {
  MetricsStore store;
  EXPECT_EQ(store.series(NodeId(1), net::ResourceKind::CpuPct), nullptr);
}

TEST(MetricsStore, KeysSeparateNodesAndKinds) {
  MetricsStore store;
  store.record(NodeId(1), net::ResourceKind::CpuPct, 1.0, 10.0);
  store.record(NodeId(2), net::ResourceKind::CpuPct, 1.0, 20.0);
  store.record(NodeId(1), net::ResourceKind::MemUsedMb, 1.0, 30.0);
  EXPECT_EQ(store.series(NodeId(1), net::ResourceKind::CpuPct)->size(), 1u);
  EXPECT_EQ(store.series(NodeId(2), net::ResourceKind::CpuPct)->size(), 1u);
  EXPECT_DOUBLE_EQ(store.series(NodeId(1), net::ResourceKind::MemUsedMb)
                       ->points()[0]
                       .value,
                   30.0);
}

TEST(MetricsStore, RetentionTrimsInBatchesWithinBound) {
  // Three series at 1 Hz for ten horizons.  Each keeps at least the
  // horizon behind its newest sample, trims only once its oldest point is
  // half a horizon past that, and so never holds more than 1.5 horizons.
  constexpr double kHorizon = 20.0;
  constexpr std::size_t kSeries = 3;
  MetricsStore store;
  store.set_retention_seconds(kHorizon);
  std::size_t most = 0;
  for (int t = 0; t < 10 * static_cast<int>(kHorizon); ++t) {
    for (std::size_t k = 0; k < kSeries; ++k) {
      store.record(NodeId(1), static_cast<net::ResourceKind>(k), t, 1.0);
      const auto pts =
          store.series(NodeId(1), static_cast<net::ResourceKind>(k))
              ->points();
      EXPECT_LE(pts.front().t_seconds, std::max(0.0, t - kHorizon)) << t;
    }
    EXPECT_LE(store.retained_points(),
              static_cast<std::size_t>(1.5 * kHorizon) * kSeries)
        << t;
    most = std::max(most, store.retained_points());
  }
  EXPECT_EQ(store.total_samples(), 10 * kHorizon * kSeries);
  // Batched, not per sample: the store grows past the horizon between
  // trims.
  EXPECT_GT(most, static_cast<std::size_t>(kHorizon + 1) * kSeries);
}

TEST(ResourceMonitor, SamplesEveryNodeEveryPeriod) {
  auto deployment = stack::Deployment::standard(2);  // 6 nodes
  ResourceMonitor monitor(&deployment, SimDuration::seconds(1), 1);
  MetricsStore store;
  monitor.sample_range(SimTime::epoch(),
                       SimTime::epoch() + SimDuration::seconds(10), store);
  // 10 polls x 6 nodes x 5 resources.
  EXPECT_EQ(store.total_samples(), 10u * 6u * net::kResourceKinds);
  const auto* cpu = store.series(NodeId(0), net::ResourceKind::CpuPct);
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->size(), 10u);
}

TEST(ResourceMonitor, CapturesPerturbation) {
  auto deployment = stack::Deployment::standard(1);
  const auto neutron =
      deployment.primary_node_for(ServiceKind::Neutron);
  deployment.inject_cpu_surge(ServiceKind::Neutron,
                              SimTime::epoch() + SimDuration::seconds(20),
                              SimTime::epoch() + SimDuration::seconds(40),
                              80.0);
  ResourceMonitor monitor(&deployment, SimDuration::seconds(1), 2);
  MetricsStore store;
  monitor.sample_range(SimTime::epoch(),
                       SimTime::epoch() + SimDuration::seconds(60), store);
  const auto* cpu = store.series(neutron, net::ResourceKind::CpuPct);
  ASSERT_NE(cpu, nullptr);
  double in_window = 0;
  double outside = 0;
  int n_in = 0;
  int n_out = 0;
  for (const auto& p : cpu->points()) {
    if (p.t_seconds >= 20 && p.t_seconds < 40) {
      in_window += p.value;
      ++n_in;
    } else {
      outside += p.value;
      ++n_out;
    }
  }
  EXPECT_GT(in_window / n_in, outside / n_out + 50.0);
}

TEST(DependencyWatcher, CleanDeploymentHasNoFailures) {
  auto deployment = stack::Deployment::standard(2);
  DependencyWatcher watcher(&deployment);
  EXPECT_TRUE(watcher.failures_at(SimTime::epoch()).empty());
}

TEST(DependencyWatcher, DetectsDaemonCrash) {
  auto deployment = stack::Deployment::standard(1);
  deployment.crash_software(ServiceKind::NovaCompute, "nova-compute",
                            SimTime::epoch() + SimDuration::seconds(5),
                            SimTime::epoch() + SimDuration::seconds(15));
  DependencyWatcher watcher(&deployment);
  EXPECT_TRUE(watcher.failures_at(SimTime::epoch()).empty());
  const auto failures =
      watcher.failures_at(SimTime::epoch() + SimDuration::seconds(10));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].dependency, "nova-compute");
}

TEST(DependencyWatcher, FailuresInWindowDeduplicated) {
  auto deployment = stack::Deployment::standard(1);
  deployment.crash_software(ServiceKind::Glance, "glance-api",
                            SimTime::epoch(),
                            SimTime::epoch() + SimDuration::seconds(30));
  DependencyWatcher watcher(&deployment);
  const auto failures = watcher.failures_in(
      SimTime::epoch(), SimTime::epoch() + SimDuration::seconds(10));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].dependency, "glance-api");
  EXPECT_EQ(failures[0].observed, SimTime::epoch());
}

TEST(DependencyWatcher, EmptyWindowObservesNothing) {
  // [from, from) contains no poll, even with an active failure under it.
  auto deployment = stack::Deployment::standard(1);
  deployment.crash_software(ServiceKind::Glance, "glance-api",
                            SimTime::epoch(),
                            SimTime::epoch() + SimDuration::seconds(30));
  DependencyWatcher watcher(&deployment);
  const auto t = SimTime::epoch() + SimDuration::seconds(5);
  EXPECT_TRUE(watcher.failures_in(t, t).empty());
}

TEST(DependencyWatcher, PeriodNotDividingRangePollsWithinExclusiveEnd) {
  // Period 3 s over [0, 10): polls land at 0, 3, 6, 9 — `to` is exclusive,
  // and the last poll is the largest from + k·period strictly below it.
  auto deployment = stack::Deployment::standard(1);
  deployment.crash_software(ServiceKind::Glance, "glance-api",
                            SimTime::epoch() + SimDuration::seconds(8),
                            SimTime::epoch() + SimDuration::seconds(30));
  DependencyWatcher watcher(&deployment);

  // Polls at 0/3/6 miss the failure; the 9 s poll observes it.
  const auto hit = watcher.failures_in(
      SimTime::epoch(), SimTime::epoch() + SimDuration::seconds(10),
      SimDuration::seconds(3));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].dependency, "glance-api");
  EXPECT_EQ(hit[0].observed, SimTime::epoch() + SimDuration::seconds(9));

  // Shrinking the window to [0, 9) removes that poll entirely.
  EXPECT_TRUE(watcher
                  .failures_in(SimTime::epoch(),
                               SimTime::epoch() + SimDuration::seconds(9),
                               SimDuration::seconds(3))
                  .empty());
}

TEST(DependencyWatcher, FailRecoverFailKeepsFirstObservation) {
  // Two distinct outages of the same daemon inside one window deduplicate
  // to a single failure stamped with the *first* observation.
  auto deployment = stack::Deployment::standard(1);
  deployment.crash_software(ServiceKind::Glance, "glance-api",
                            SimTime::epoch() + SimDuration::seconds(2),
                            SimTime::epoch() + SimDuration::seconds(4));
  deployment.crash_software(ServiceKind::Glance, "glance-api",
                            SimTime::epoch() + SimDuration::seconds(6),
                            SimTime::epoch() + SimDuration::seconds(8));
  DependencyWatcher watcher(&deployment);

  // Sanity: the daemon really did recover between the outages.
  EXPECT_TRUE(watcher.failures_at(SimTime::epoch() + SimDuration::seconds(5))
                  .empty());

  const auto failures = watcher.failures_in(
      SimTime::epoch(), SimTime::epoch() + SimDuration::seconds(10));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].dependency, "glance-api");
  EXPECT_EQ(failures[0].observed, SimTime::epoch() + SimDuration::seconds(2));
}

TEST(DependencyWatcher, InfraReachability) {
  auto deployment = stack::Deployment::standard(1);
  DependencyWatcher watcher(&deployment);
  const auto t = SimTime::epoch() + SimDuration::seconds(1);
  EXPECT_TRUE(watcher.infra_reachable(ServiceKind::MySql, t));

  deployment.crash_software(ServiceKind::MySql, "mysqld", SimTime::epoch(),
                            SimTime::epoch() + SimDuration::seconds(10));
  EXPECT_FALSE(watcher.infra_reachable(ServiceKind::MySql, t));

  // The unreachability also surfaces as a tcp: failure entry.
  bool saw_tcp = false;
  for (const auto& f : watcher.failures_at(t)) {
    saw_tcp = saw_tcp || f.dependency == "tcp:mysql";
  }
  EXPECT_TRUE(saw_tcp);
}

TEST(DependencyWatcher, NtpStopDetected) {
  // §7.2.4: a stopped NTP agent is the root cause behind a Keystone 401.
  auto deployment = stack::Deployment::standard(1);
  const auto controller =
      deployment.primary_node_for(ServiceKind::Horizon);
  deployment.node(controller).inject_outage(
      {"ntpd", SimTime::epoch(),
       SimTime::epoch() + SimDuration::seconds(60)});
  DependencyWatcher watcher(&deployment);
  const auto failures =
      watcher.failures_at(SimTime::epoch() + SimDuration::seconds(1));
  bool saw_ntp = false;
  for (const auto& f : failures) {
    saw_ntp = saw_ntp || (f.dependency == "ntpd" && f.node == controller);
  }
  EXPECT_TRUE(saw_ntp);
}

}  // namespace
}  // namespace gretel::monitor
