// Campaign engine: generator determinism and coverage, orchestrator
// outcomes, event-budget enforcement, and per-scenario reconciliation.
#include <gtest/gtest.h>

#include <set>

#include "campaign/cluster.h"
#include "campaign/orchestrator.h"
#include "gretel/training.h"
#include "util/seed.h"

namespace gretel::campaign {
namespace {

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(77, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training =
      core::learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

CampaignPlan small_plan(std::size_t scenarios = 18) {
  CampaignPlan plan;
  plan.seed = 0xCA59A16Eull;
  plan.scenarios = scenarios;
  plan.concurrent_tests = 8;
  plan.window_s = 30.0;
  return plan;
}

TEST(CampaignGenerator, DeterministicFromTheCampaignSeed) {
  auto& e = env();
  ScenarioGenerator gen(&e.catalog, small_plan());
  const auto a = gen.generate();
  const auto b = gen.generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].fault_class, b[i].fault_class);
    ASSERT_EQ(a[i].faults.size(), b[i].faults.size());
    for (std::size_t f = 0; f < a[i].faults.size(); ++f) {
      EXPECT_EQ(a[i].faults[f].op_index, b[i].faults[f].op_index);
      EXPECT_EQ(a[i].faults[f].fail_step, b[i].faults[f].fail_step);
      EXPECT_EQ(a[i].faults[f].status, b[i].faults[f].status);
      EXPECT_DOUBLE_EQ(a[i].faults[f].start_offset_s,
                       b[i].faults[f].start_offset_s);
    }
    EXPECT_EQ(a[i].env.kind, b[i].env.kind);
    EXPECT_EQ(a[i].env.service, b[i].env.service);
    EXPECT_EQ(a[i].env.daemon, b[i].env.daemon);
    // generate_one(i) is the same derivation as generate()[i].
    EXPECT_EQ(gen.generate_one(i).seed, a[i].seed);
  }
}

TEST(CampaignGenerator, RoundRobinCoversEveryFaultClass) {
  auto& e = env();
  ScenarioGenerator gen(&e.catalog, small_plan(2 * kFaultClasses));
  const auto specs = gen.generate();
  std::set<FaultClass> seen;
  for (const auto& s : specs) seen.insert(s.fault_class);
  EXPECT_EQ(seen.size(), kFaultClasses);
}

TEST(CampaignGenerator, ClassShapesMatchTheirContracts) {
  auto& e = env();
  ScenarioGenerator gen(&e.catalog, small_plan(3 * kFaultClasses));
  for (const auto& spec : gen.generate()) {
    switch (spec.fault_class) {
      case FaultClass::OpError:
        EXPECT_EQ(spec.faults.size(), 1u);
        EXPECT_FALSE(spec.has_env());
        EXPECT_FALSE(spec.wire.enabled());
        EXPECT_FALSE(spec.monitor.enabled());
        break;
      case FaultClass::EnvCpuSurge:
      case FaultClass::EnvDiskExhaustion:
      case FaultClass::EnvDaemonCrash:
      case FaultClass::EnvLinkLatency:
        EXPECT_TRUE(spec.has_env());
        EXPECT_EQ(spec.faults.size(), 1u);
        break;
      case FaultClass::WireChaos:
        EXPECT_TRUE(spec.wire.enabled());
        break;
      case FaultClass::MonitorChaos:
        EXPECT_TRUE(spec.monitor.enabled());
        EXPECT_TRUE(spec.has_env());
        break;
      case FaultClass::MultiIndependent:
        EXPECT_TRUE(spec.multi_fault());
        break;
      case FaultClass::Cascade:
        EXPECT_TRUE(spec.has_env());
        EXPECT_FALSE(spec.faults.empty());
        break;
    }
    // Run-time consumers never share the scenario seed directly.
    EXPECT_NE(spec.wire.seed, spec.seed);
    EXPECT_NE(spec.monitor.seed, spec.seed);
    EXPECT_NE(spec.wire.seed, spec.monitor.seed);
    // All faults land inside the workload window.
    for (const auto& f : spec.faults) {
      EXPECT_GE(f.start_offset_s, 0.0);
      EXPECT_LT(f.start_offset_s, spec.window_s);
    }
  }
}

TEST(CampaignEngine, SweepIsDeterministicAndReconciles) {
  auto& e = env();
  const auto plan = small_plan(kFaultClasses);
  ScenarioGenerator gen(&e.catalog, plan);
  CampaignOrchestrator orch(&e.catalog, &e.training, plan);
  const auto specs = gen.generate();
  const auto first = orch.run_all(specs);
  const auto second = orch.run_all(specs);
  ASSERT_EQ(first.size(), specs.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    // No scenario may crash: a crash here is an exception or a failed
    // audit/counter reconciliation (the note says which).
    EXPECT_NE(first[i].outcome, Outcome::Crashed)
        << "scenario " << i << ": " << first[i].note;
    EXPECT_EQ(first[i].fingerprint, second[i].fingerprint) << i;
    EXPECT_EQ(first[i].outcome, second[i].outcome) << i;
    EXPECT_EQ(first[i].events, second[i].events) << i;
  }

  const auto summary = summarize(first);
  EXPECT_EQ(summary.scenarios, specs.size());
  // One full round covers each class exactly once.
  for (std::size_t c = 0; c < kFaultClasses; ++c)
    EXPECT_EQ(summary.per_class[c].scenarios, 1u);
  // The engine localizes at least some of the single-round sweep.
  EXPECT_GT(summary.outcomes[static_cast<std::size_t>(Outcome::Localized)],
            0u);
  EXPECT_GT(summary.distinct_fingerprints, 1u);
}

TEST(CampaignEngine, StreamingSweepReconcilesAndStampsReportLatency) {
  auto& e = env();
  auto plan = small_plan(kFaultClasses);
  plan.stream = stream::StreamOptions{.tick_ms = 250.0};
  ScenarioGenerator gen(&e.catalog, plan);
  CampaignOrchestrator orch(&e.catalog, &e.training, plan);
  const auto specs = gen.generate();
  const auto results = orch.run_all(specs);
  ASSERT_EQ(results.size(), specs.size());
  std::size_t localized = 0, stamped = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    // A streaming crash includes flow-ledger mismatches (offered !=
    // ingested + shed after finish) — the note says which.
    EXPECT_NE(results[i].outcome, Outcome::Crashed)
        << "scenario " << i << ": " << results[i].note;
    EXPECT_GT(results[i].stream_ticks, 0u) << i;
    if (results[i].outcome == Outcome::Localized) ++localized;
    if (results[i].first_report_latency_ms >= 0.0) ++stamped;
  }
  EXPECT_GT(localized, 0u);
  // Every scenario that emitted a report got a fault-to-report latency.
  EXPECT_GT(stamped, 0u);

  // Streaming runs the same detection math on a tick cadence: the
  // localization verdict matches the batch sweep scenario-for-scenario.
  // (Failure-mode fingerprints may differ — a deadline-forced streaming
  // report matches on less future context than batch; that quantization
  // caveat is documented in docs/ARCHITECTURE.md, "Streaming mode".)
  auto batch_plan = plan;
  batch_plan.stream.reset();
  CampaignOrchestrator batch(&e.catalog, &e.training, batch_plan);
  const auto batch_results = batch.run_all(specs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].outcome, batch_results[i].outcome) << i;
    EXPECT_EQ(results[i].stream_ticks > 0, batch_results[i].stream_ticks == 0)
        << i;  // only the streaming run ticks
  }
}

// A source ring far smaller than one tick's arrivals makes every scenario
// shed at admission, so the campaign's loss gate (losses_recorded ==
// decode_failures + stream_shed) and its flow ledger run with both terms
// non-zero, wire chaos included.
TEST(CampaignEngine, SqueezedStreamingSweepShedsAndReconciles) {
  auto& e = env();
  auto plan = small_plan(kFaultClasses);
  plan.stream = stream::StreamOptions{.tick_ms = 250.0, .source_ring = 16};
  ScenarioGenerator gen(&e.catalog, plan);
  CampaignOrchestrator orch(&e.catalog, &e.training, plan);
  const auto specs = gen.generate();
  const auto results = orch.run_all(specs);
  ASSERT_EQ(results.size(), specs.size());
  std::size_t shedding = 0;
  bool wire_chaos_shed = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_NE(results[i].outcome, Outcome::Crashed)
        << "scenario " << i << ": " << results[i].note;
    EXPECT_GT(results[i].stream_ticks, 0u) << i;
    if (results[i].stream_shed == 0) continue;
    ++shedding;
    if (specs[i].fault_class == FaultClass::WireChaos) wire_chaos_shed = true;
  }
  EXPECT_GT(shedding, 0u);
  EXPECT_TRUE(wire_chaos_shed);
}

TEST(CampaignEngine, EventBudgetTruncatesDeterministically) {
  auto& e = env();
  auto plan = small_plan(1);
  plan.budget_events = 64;
  ScenarioGenerator gen(&e.catalog, plan);
  CampaignOrchestrator orch(&e.catalog, &e.training, plan);
  const auto result = orch.run(gen.generate_one(0));
  EXPECT_NE(result.outcome, Outcome::Crashed) << result.note;
  EXPECT_TRUE(result.budget_truncated);
  EXPECT_EQ(result.events, 64u);
}

TEST(CampaignCluster, GroupsByFingerprintAndCountsNovelty) {
  std::vector<ScenarioResult> results(5);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].id = i;
    results[i].fault_class = static_cast<FaultClass>(i % kFaultClasses);
    results[i].outcome = Outcome::Localized;
  }
  results[0].fingerprint = 0xAA;
  results[1].fingerprint = 0xAA;
  results[2].fingerprint = 0xBB;
  results[3].fingerprint = 0xAA;
  results[4].fingerprint = 0xCC;
  results[4].outcome = Outcome::Missed;

  const auto s = summarize(results);
  EXPECT_EQ(s.distinct_fingerprints, 3u);
  EXPECT_EQ(s.singleton_fingerprints, 2u);
  ASSERT_EQ(s.clusters.size(), 3u);
  // Largest first; ties by fingerprint.
  EXPECT_EQ(s.clusters[0].fingerprint, 0xAAu);
  EXPECT_EQ(s.clusters[0].size, 3u);
  EXPECT_EQ(s.clusters[0].example_id, 0u);
  EXPECT_EQ(s.outcomes[static_cast<std::size_t>(Outcome::Localized)], 4u);
  EXPECT_EQ(s.outcomes[static_cast<std::size_t>(Outcome::Missed)], 1u);
  EXPECT_NEAR(s.localized_fraction(), 0.8, 1e-9);

  // JSON body is well-formed enough to contain the headline fields.
  std::string json;
  append_summary_json(json, s);
  EXPECT_NE(json.find("\"scenarios\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"distinct_fingerprints\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"clusters\""), std::string::npos);
}

}  // namespace
}  // namespace gretel::campaign
