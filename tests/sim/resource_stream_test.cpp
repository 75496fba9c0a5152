#include "monitor/resource_stream.h"

#include <gtest/gtest.h>

#include "detect/level_shift.h"
#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "util/rng.h"

namespace gretel::monitor {
namespace {

using net::ResourceKind;
using wire::NodeId;

ResourceAnomalyStream fast_stream() {
  detect::LevelShiftParams p;
  p.min_baseline = 8;
  p.confirm = 3;
  p.sigma_floor = 0.1;
  p.cooldown_seconds = 0.0;
  return ResourceAnomalyStream(p);
}

TEST(ResourceAnomalyStream, QuietOnStationary) {
  auto stream = fast_stream();
  util::Rng rng(1);
  for (int t = 0; t < 300; ++t) {
    EXPECT_FALSE(stream.observe(NodeId(1), ResourceKind::CpuPct, t,
                                rng.next_gaussian(10.0, 0.5))
                     .has_value());
  }
  EXPECT_TRUE(stream.alarms().empty());
  EXPECT_EQ(stream.samples(), 300u);
}

TEST(ResourceAnomalyStream, DetectsCpuSurge) {
  auto stream = fast_stream();
  util::Rng rng(2);
  for (int t = 0; t < 100; ++t) {
    stream.observe(NodeId(2), ResourceKind::CpuPct, t,
                   rng.next_gaussian(12.0, 0.5));
  }
  std::optional<ResourceAlarm> alarm;
  for (int t = 100; t < 110 && !alarm; ++t) {
    alarm = stream.observe(NodeId(2), ResourceKind::CpuPct, t, 92.0);
  }
  ASSERT_TRUE(alarm.has_value());
  EXPECT_EQ(alarm->node, NodeId(2));
  EXPECT_EQ(alarm->kind, ResourceKind::CpuPct);
  EXPECT_EQ(alarm->alarm.direction, detect::ShiftDirection::Up);
}

TEST(ResourceAnomalyStream, SeriesIndependentPerNodeAndKind) {
  auto stream = fast_stream();
  // Flat CPU on node 1, flat memory on node 1, flat CPU on node 2 — a
  // surge on node 2 must not alarm node 1's detectors.
  for (int t = 0; t < 50; ++t) {
    stream.observe(NodeId(1), ResourceKind::CpuPct, t, 10.0);
    stream.observe(NodeId(1), ResourceKind::MemUsedMb, t, 4000.0);
    stream.observe(NodeId(2), ResourceKind::CpuPct, t, 10.0);
  }
  for (int t = 50; t < 60; ++t) {
    stream.observe(NodeId(2), ResourceKind::CpuPct, t, 95.0);
  }
  for (const auto& a : stream.alarms()) {
    EXPECT_EQ(a.node, NodeId(2));
    EXPECT_EQ(a.kind, ResourceKind::CpuPct);
  }
  EXPECT_FALSE(stream.alarms().empty());
}

TEST(ResourceAnomalyStream, AlarmsForFiltersWindowAndNode) {
  auto stream = fast_stream();
  for (int t = 0; t < 50; ++t) {
    stream.observe(NodeId(3), ResourceKind::DiskIoOps, t, 100.0);
  }
  for (int t = 50; t < 56; ++t) {
    stream.observe(NodeId(3), ResourceKind::DiskIoOps, t, 900.0);
  }
  EXPECT_FALSE(stream.alarms_for(NodeId(3), 45.0, 60.0).empty());
  EXPECT_TRUE(stream.alarms_for(NodeId(3), 0.0, 45.0).empty());
  EXPECT_TRUE(stream.alarms_for(NodeId(4), 0.0, 100.0).empty());
}

// The §7.2.2 loop through the analyzer facade: streaming metrics raise a
// CPU resource alarm on the Neutron node during the surge.
TEST(AnalyzerMetrics, OnMetricRunsOnlineDetection) {
  auto catalog = tempest::TempestCatalog::build(81, 0.02);
  auto deployment = stack::Deployment::standard(1);
  auto training = core::learn_fingerprints(catalog, deployment);

  const auto neutron =
      deployment.primary_node_for(wire::ServiceKind::Neutron);
  deployment.inject_cpu_surge(wire::ServiceKind::Neutron,
                              util::SimTime::epoch() +
                                  util::SimDuration::seconds(60),
                              util::SimTime::epoch() +
                                  util::SimDuration::seconds(120),
                              80.0);

  core::Analyzer::Options options;
  options.config.fp_max = training.fp_max;
  core::Analyzer analyzer(&training.db, &catalog.apis(), &deployment,
                          options);

  ResourceMonitor monitor(&deployment, util::SimDuration::seconds(1), 5);
  monitor.sample_range(
      util::SimTime::epoch(),
      util::SimTime::epoch() + util::SimDuration::seconds(120),
      [&analyzer](wire::NodeId node, ResourceKind kind, double t, double v) {
        analyzer.on_metric(node, kind, t, v);
      });

  // The samples landed in the metrics store...
  ASSERT_NE(analyzer.metrics().series(neutron, ResourceKind::CpuPct),
            nullptr);
  // ...and the online stream flagged the CPU shift on the Neutron node.
  bool cpu_alarm = false;
  for (const auto& a : analyzer.resource_alarms()) {
    cpu_alarm = cpu_alarm || (a.node == neutron &&
                              a.kind == ResourceKind::CpuPct &&
                              a.alarm.t_seconds >= 60.0);
  }
  EXPECT_TRUE(cpu_alarm);
}

}  // namespace
}  // namespace gretel::monitor
