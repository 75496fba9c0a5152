// End-to-end tests of the probed monitoring plane behind root-cause
// analysis (§5.4 under a fallible monitoring substrate):
//
//  * with all chaos rates zero and default knobs, the probed watcher path
//    produces byte-identical exported diagnoses to the oracle path;
//  * a probe-loss sweep (drop + timeout at 1/5/10%) reconciles the chaos
//    audit exactly against the probe counters, never *adds* Confirmed
//    causes as the loss rate rises, never *loses* evidence gaps, and is
//    exactly reproducible for a fixed seed;
//  * a wedged monitoring agent cannot stall an analysis past the
//    configured probe deadline budget, and the report says so.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/json_export.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "stack/faults.h"
#include "tempest/workload.h"

namespace gretel::core {
namespace {

using stack::Launch;
using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(31, 0.04);
  TrainingReport training;
  Env() {
    auto deployment = stack::Deployment::standard(3);
    training = learn_fingerprints(catalog, deployment);
  }
};

Env& env() {
  static Env e;
  return e;
}

std::size_t step_of(const stack::OperationTemplate& op, wire::ApiId api) {
  for (std::size_t i = 0; i < op.steps.size(); ++i) {
    if (op.steps[i].api == api) return i;
  }
  ADD_FAILURE() << "api not in operation " << op.name;
  return 0;
}

// The analyzer keeps pointers into the deployment, so a finished run ships
// both together.
struct Run {
  std::unique_ptr<stack::Deployment> deployment;
  std::unique_ptr<Analyzer> analyzer;
  const Analyzer* operator->() const { return analyzer.get(); }
  const Analyzer& operator*() const { return *analyzer; }
};

// The §7.2.3 scenario — an upstream agent crash found by expanded search —
// exercised here because its root cause is pure watcher evidence: exactly
// the kind of finding a degraded monitoring plane can lose.
Run run_scenario(const Analyzer::Options& base) {
  auto& e = env();
  Run run;
  run.deployment =
      std::make_unique<stack::Deployment>(stack::Deployment::standard(3));
  auto& deployment = *run.deployment;
  const auto& op = e.catalog.operation(e.catalog.canonical().vm_create);
  deployment.crash_software(wire::ServiceKind::NovaCompute,
                            "neutron-plugin-linuxbridge-agent",
                            SimTime::epoch(),
                            SimTime::epoch() + SimDuration::minutes(5));
  Launch launch{&op, SimTime::epoch() + SimDuration::seconds(10),
                stack::no_valid_host_fault(step_of(
                    op, e.catalog.well_known().neutron_post_ports))};

  Analyzer::Options opt = base;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  run.analyzer = std::make_unique<Analyzer>(&e.training.db, &e.catalog.apis(),
                                            &deployment, opt);
  auto& analyzer = *run.analyzer;
  stack::WorkflowExecutor executor(&deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), 1002);
  const std::vector<Launch> launches{launch};
  const auto records = executor.execute(launches);
  monitor::ResourceMonitor mon(&deployment, SimDuration::seconds(1), 1002);
  mon.sample_range(SimTime::epoch(),
                   records.back().ts + SimDuration::seconds(3),
                   analyzer.metrics());
  for (const auto& r : records) analyzer.on_wire(r);
  analyzer.finish();
  return run;
}

std::string exported(const Run& run) {
  auto& e = env();
  return to_json(run.analyzer->diagnoses(), e.catalog.apis(), e.training.db);
}

TEST(ProbedMonitoring, ZeroChaosIsByteIdenticalToOracle) {
  Analyzer::Options oracle;
  Analyzer::Options probed;
  probed.probed_monitoring = true;  // zero-rate chaos, default knobs

  const auto reference = run_scenario(oracle);
  const auto reference_json = exported(reference);
  ASSERT_FALSE(reference->diagnoses().empty());

  const auto probed_run = run_scenario(probed);
  EXPECT_EQ(exported(probed_run), reference_json);

  // A healthy probed plane emits none of the degradation vocabulary.
  EXPECT_EQ(reference_json.find("monitoring_degraded"), std::string::npos);
  EXPECT_EQ(reference_json.find("\"evidence\""), std::string::npos);
  for (const auto& d : probed_run->diagnoses()) {
    EXPECT_FALSE(d.root_cause.monitoring_degraded);
    EXPECT_TRUE(d.root_cause.evidence_gaps.empty());
    EXPECT_EQ(d.root_cause.stale_series, 0u);
  }
  // Probes ran (the plane was live) but never drew chaos or retried.
  const auto stats = probed_run->watcher().probe_stats();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_TRUE(probed_run->watcher().chaos_audit().empty());
  const auto health = probed_run->health();
  EXPECT_EQ(health.probe_attempts, stats.probes);
  EXPECT_EQ(health.probe_timeouts, 0u);
}

TEST(ProbedMonitoring, LossSweepIsMonotoneAuditedAndReproducible) {
  Analyzer::Options clean;
  clean.probed_monitoring = true;
  const auto baseline = run_scenario(clean);
  ASSERT_FALSE(baseline->diagnoses().empty());

  using TargetSet = std::set<std::pair<int, std::string>>;
  const auto confirmed_causes = [](const Analyzer& a) {
    TargetSet out;
    for (const auto& d : a.diagnoses()) {
      for (const auto& c : d.root_cause.causes) {
        if (c.evidence == monitor::EvidenceStatus::Confirmed)
          out.emplace(c.node.value(), c.detail);
      }
    }
    return out;
  };
  const auto gap_targets = [](const Analyzer& a) {
    TargetSet out;
    for (const auto& d : a.diagnoses()) {
      for (const auto& g : d.root_cause.evidence_gaps)
        out.emplace(g.node.value(), g.dependency);
    }
    return out;
  };

  TargetSet previous_confirmed = confirmed_causes(*baseline);
  TargetSet previous_gaps = gap_targets(*baseline);
  ASSERT_FALSE(previous_confirmed.empty());
  ASSERT_TRUE(previous_gaps.empty());

  for (const double rate : {0.01, 0.05, 0.10}) {
    SCOPED_TRACE("loss rate " + std::to_string(rate));
    Analyzer::Options opt;
    opt.probed_monitoring = true;
    opt.monitor_chaos.seed = 2026;
    opt.monitor_chaos.probe_drop_rate = rate;
    opt.monitor_chaos.probe_timeout_rate = rate;

    const auto run = run_scenario(opt);

    // Exact audit ↔ counter reconciliation: every dropped or timed-out
    // attempt is one audited injection, and nothing else is.
    const auto stats = run->watcher().probe_stats();
    const auto audit = run->watcher().chaos_audit();
    std::uint64_t audited_drops = 0;
    std::uint64_t audited_timeouts = 0;
    for (const auto& inj : audit) {
      switch (inj.action) {
        case monitor::MonitorChaosAction::ProbeDrop: ++audited_drops; break;
        case monitor::MonitorChaosAction::ProbeTimeout:
        case monitor::MonitorChaosAction::ProbeDelay:
          ++audited_timeouts;
          break;
        default:
          ADD_FAILURE() << "unexpected injection "
                        << monitor::to_string(inj.action);
      }
    }
    EXPECT_EQ(stats.drops, audited_drops);
    EXPECT_EQ(stats.timeouts, audited_timeouts);
    EXPECT_EQ(audit.size(), audited_drops + audited_timeouts);
    EXPECT_GT(audit.size(), 0u);
    EXPECT_EQ(stats.retries + stats.probes, stats.attempts);

    // Monotone degradation across the sweep (fixed seed, nested fate
    // sets): a worse wire never *adds* Confirmed causes and never *loses*
    // evidence gaps.
    const auto confirmed = confirmed_causes(*run);
    for (const auto& cause : confirmed) {
      EXPECT_TRUE(previous_confirmed.count(cause))
          << "Confirmed cause appeared as loss rose: node "
          << cause.first << " " << cause.second;
    }
    const auto gaps = gap_targets(*run);
    for (const auto& gap : previous_gaps) {
      EXPECT_TRUE(gaps.count(gap))
          << "evidence gap vanished as loss rose: node " << gap.first << " "
          << gap.second;
    }
    previous_confirmed = confirmed;
    previous_gaps = gaps;

    // Gaps and degraded flags agree.
    for (const auto& d : run->diagnoses()) {
      EXPECT_EQ(d.root_cause.monitoring_degraded,
                !d.root_cause.evidence_gaps.empty() ||
                    d.root_cause.stale_series > 0);
    }

    // Fixed seed: the whole degraded run is exactly reproducible.
    const auto rerun = run_scenario(opt);
    EXPECT_EQ(exported(run), exported(rerun));
  }
  EXPECT_FALSE(previous_gaps.empty());
}

TEST(ProbedMonitoring, WedgedAgentCannotStallAnalysisPastBudget) {
  auto& e = env();
  const double budget_ms = 500.0;

  Analyzer::Options opt;
  opt.probed_monitoring = true;
  opt.config.probe_budget_ms = budget_ms;
  // Every monitoring agent in the deployment is wedged for the whole run:
  // each probe attempt hangs to its deadline.  Without the budget this
  // would cost (attempts × timeout) across every target and poll.
  for (std::uint8_t n = 0; n < 16; ++n) {
    opt.monitor_chaos.agent_outages.push_back(
        {wire::NodeId(n), SimTime::epoch(),
         SimTime::epoch() + SimDuration::minutes(10), /*wedged=*/true});
  }

  const auto run = run_scenario(opt);
  ASSERT_FALSE(run->diagnoses().empty());

  // One in-flight probe may straddle the boundary, so the spent budget is
  // capped at budget + the worst single-probe cost (3 deadlines + two
  // backoffs below 10 + 20 ms).
  const double worst_single_probe_ms = 3 * 100.0 + 10.0 + 20.0;
  for (const auto& d : run->diagnoses()) {
    EXPECT_LE(d.root_cause.probe_time_ms, budget_ms + worst_single_probe_ms);
    EXPECT_TRUE(d.root_cause.monitoring_degraded);
    EXPECT_FALSE(d.root_cause.evidence_gaps.empty());
    // Nothing the watchers "saw" through a wedged plane is Confirmed.
    for (const auto& c : d.root_cause.causes) {
      EXPECT_NE(c.kind, CauseKind::SoftwareFailure);
    }
  }
  const auto stats = run->watcher().probe_stats();
  EXPECT_GT(stats.budget_exhausted, 0u);
  EXPECT_GT(stats.timeouts, 0u);
  const auto health = run->health();
  EXPECT_EQ(health.probe_budget_exhausted, stats.budget_exhausted);

  // The degradation is visible in the exported document.
  const auto json = exported(run);
  EXPECT_NE(json.find("\"monitoring_degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"evidence_gaps\""), std::string::npos);
}

}  // namespace
}  // namespace gretel::core
