// Stress the pipeline with the hardest mix: operational faults (REST errors
// anchoring Algorithm 2) interleaved with an injected latency fault
// (level-shift alarms) inside one heavily concurrent capture.  The analyzer
// must surface both fault kinds, and performance alarms only where the
// latency was injected.  This file owns its environment because it mutates
// the deployment with a latency injection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "tempest/workload.h"

namespace gretel::core {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(33, 0.05);
  stack::Deployment deployment = stack::Deployment::standard(3);
  TrainingReport training = learn_fingerprints(catalog, deployment);

  // One capture shared by every configuration: ~60 concurrent Tempest
  // operations over four minutes, three injected operational faults, and
  // 60 ms of extra link latency on the Glance server for the second half.
  std::vector<net::WireRecord> records = [this] {
    tempest::WorkloadSpec spec;
    spec.concurrent_tests = 60;
    spec.faults = 3;
    spec.seed = 41;
    spec.window = SimDuration::seconds(240);
    const auto w = make_parallel_workload(catalog, spec);
    deployment.inject_link_latency(
        wire::ServiceKind::Glance,
        SimTime::epoch() + SimDuration::seconds(120),
        SimTime::epoch() + SimDuration::seconds(260),
        SimDuration::millis(60));
    stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                     &catalog.infra(), 410);
    return executor.execute(w.launches);
  }();
};

Env& env() {
  static Env e;
  return e;
}

std::unique_ptr<Analyzer> replay() {
  auto& e = env();
  Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  auto analyzer = std::make_unique<Analyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, opt);
  for (const auto& r : e.records) analyzer->on_wire(r);
  analyzer->finish();
  return analyzer;
}

TEST(ConcurrentStress, SerialReferenceSeesBothFaultKinds) {
  const auto analyzer = replay();
  const auto& stats = analyzer->detector_stats();
  EXPECT_GE(stats.operational_reports, 1u);
  EXPECT_GE(stats.performance_reports, 1u);
  bool operational = false;
  bool performance = false;
  for (const auto& d : analyzer->diagnoses()) {
    operational = operational || d.fault.kind == FaultKind::Operational;
    performance = performance || d.fault.kind == FaultKind::Performance;
  }
  EXPECT_TRUE(operational);
  EXPECT_TRUE(performance);
}

TEST(ConcurrentStress, PerformanceAlarmsConfinedToInjectionWindow) {
  // §7.3 item 4: level shifts alarm when the injected latency starts, not
  // on clean traffic: every performance diagnosis must fall after the
  // injection point (t = 120 s).
  const auto analyzer = replay();
  std::size_t performance = 0;
  for (const auto& d : analyzer->diagnoses()) {
    if (d.fault.kind != FaultKind::Performance) continue;
    ++performance;
    ASSERT_TRUE(d.fault.latency.has_value());
    EXPECT_GE(d.fault.latency->alarm.t_seconds, 120.0);
  }
  EXPECT_GE(performance, 1u);
}

}  // namespace
}  // namespace gretel::core
