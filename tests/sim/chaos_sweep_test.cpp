// End-to-end chaos sweeps: a recorded workload is degraded by ChaosTap and
// replayed through the full capture→decode→detect→diagnose path.
//
//  * Zero chaos is a strict no-op: the analyzer's output is byte-identical
//    to a direct replay and nothing reports degraded confidence.
//  * Under loss (drop + truncate at 1/5/10%), the pipeline never crashes,
//    its quarantine counters agree exactly with the injector's audit, and
//    reports whose windows overlapped losses carry the degraded flag.
//  * The drop sets nest across rates (fixed seed), so detection volume
//    degrades monotonically as the wire gets worse.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "net/chaos.h"
#include "tempest/workload.h"

namespace gretel::core {
namespace {

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  TrainingReport training = learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

std::vector<net::WireRecord> record_workload(std::uint64_t seed) {
  auto& e = env();
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 3;
  spec.seed = seed;
  spec.window = util::SimDuration::seconds(120);
  const auto w = make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), seed * 10);
  return executor.execute(w.launches);
}

std::unique_ptr<Analyzer> replay(const std::vector<net::WireRecord>& recs) {
  auto& e = env();
  Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  auto analyzer = std::make_unique<Analyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, opt);
  for (const auto& r : recs) analyzer->on_wire(r);
  analyzer->finish();
  return analyzer;
}

void expect_identical_diagnoses(const Analyzer& a, const Analyzer& b,
                                const std::string& label) {
  SCOPED_TRACE(label);
  const auto& da = a.diagnoses();
  const auto& db = b.diagnoses();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    SCOPED_TRACE("diagnosis " + std::to_string(i));
    EXPECT_EQ(da[i].fault.kind, db[i].fault.kind);
    EXPECT_EQ(da[i].fault.offending_api, db[i].fault.offending_api);
    EXPECT_EQ(da[i].fault.detected_at, db[i].fault.detected_at);
    EXPECT_EQ(da[i].fault.matched_fingerprints,
              db[i].fault.matched_fingerprints);
    EXPECT_EQ(da[i].fault.theta, db[i].fault.theta);
    EXPECT_EQ(da[i].fault.window_losses, db[i].fault.window_losses);
    EXPECT_EQ(da[i].fault.degraded_confidence,
              db[i].fault.degraded_confidence);
    EXPECT_EQ(da[i].root_cause.degraded, db[i].root_cause.degraded);
  }
  EXPECT_EQ(a.detector_stats().operational_reports,
            b.detector_stats().operational_reports);
  EXPECT_EQ(a.detector_stats().events, b.detector_stats().events);
}

TEST(ChaosSweep, ZeroChaosIsByteIdenticalBaseline) {
  const auto records = record_workload(31);

  net::ChaosConfig config;  // all rates zero
  net::ChaosStats stats;
  const auto through_tap = net::ChaosTap::apply(config, records, &stats);
  ASSERT_EQ(through_tap.size(), records.size());
  EXPECT_EQ(stats.records_in, stats.records_out);

  const auto direct = replay(records);
  const auto tapped = replay(through_tap);
  ASSERT_FALSE(direct->diagnoses().empty());
  expect_identical_diagnoses(*direct, *tapped, "zero-chaos tap");

  // Clean telemetry never reports degraded confidence or losses.
  for (const auto& d : tapped->diagnoses()) {
    EXPECT_FALSE(d.fault.degraded_confidence);
    EXPECT_EQ(d.fault.window_losses, 0u);
    EXPECT_FALSE(d.root_cause.degraded);
  }
  EXPECT_EQ(tapped->tap_stats().decode_failures, 0u);
  EXPECT_EQ(tapped->detector_stats().losses_recorded, 0u);
  EXPECT_EQ(tapped->detector_stats().degraded_reports, 0u);
}

TEST(ChaosSweep, LossSweepExactAccountingAndDegradedFlags) {
  const auto records = record_workload(31);
  const auto clean = replay(records);
  const auto clean_reports = clean->detector_stats().operational_reports;
  ASSERT_GE(clean_reports, 1u);

  std::uint64_t previous_reports = clean_reports;
  bool saw_degraded_report = false;
  for (const double rate : {0.01, 0.05, 0.10}) {
    SCOPED_TRACE("loss rate " + std::to_string(rate));
    net::ChaosConfig config;
    config.seed = 2024;  // fixed seed: drop/truncate sets nest across rates
    config.drop_rate = rate;
    config.truncate_rate = rate;

    net::ChaosStats stats;
    std::vector<net::ChaosInjection> audit;
    const auto degraded_records =
        net::ChaosTap::apply(config, records, &stats, &audit);

    // Injector-side conservation.
    EXPECT_EQ(stats.records_in, records.size());
    EXPECT_EQ(stats.records_in - stats.records_out, stats.total_dropped());
    ASSERT_GT(stats.truncated, 0u);
    ASSERT_GT(stats.total_dropped(), 0u);

    const auto analyzer = replay(degraded_records);

    // Pipeline-side accounting must agree *exactly* with the injector's
    // audit: truncation is always fatal to the strict parsers, so every
    // truncated frame — and nothing else — lands in quarantine.
    const auto& tap = analyzer->tap_stats();
    EXPECT_EQ(tap.decode_failures, stats.truncated);
    const auto& det = analyzer->detector_stats();
    EXPECT_EQ(det.losses_recorded, stats.truncated);

    // Detection volume is monotone non-increasing in the loss rate (the
    // affected sets nest for a fixed seed).
    const auto reports = det.operational_reports;
    EXPECT_LE(reports, previous_reports);
    previous_reports = reports;

    // Degraded-confidence flags are exactly the lossy-window reports, and
    // they propagate into the root-cause layer.
    bool any_degraded = false;
    for (const auto& d : analyzer->diagnoses()) {
      EXPECT_EQ(d.fault.degraded_confidence, d.fault.window_losses > 0);
      EXPECT_EQ(d.root_cause.degraded, d.fault.degraded_confidence);
      any_degraded |= d.fault.degraded_confidence;
    }
    EXPECT_EQ(det.degraded_reports > 0, any_degraded);
    saw_degraded_report |= any_degraded;
  }
  // At these loss rates some surviving report's window overlapped a loss.
  EXPECT_TRUE(saw_degraded_report);
}

TEST(ChaosSweep, HeavyMixedChaosNeverCrashes) {
  // Everything at once, well past the acceptance rates: the pipeline must
  // survive and its books must still balance.
  const auto records = record_workload(35);
  net::ChaosConfig config;
  config.seed = 99;
  config.drop_rate = 0.10;
  config.burst_rate = 0.01;
  config.truncate_rate = 0.10;
  config.corrupt_rate = 0.10;
  config.duplicate_rate = 0.05;
  config.reorder_rate = 0.05;
  config.clock_skew_max_ms = 25.0;
  config.stall_rate = 0.002;

  net::ChaosStats stats;
  const auto degraded_records = net::ChaosTap::apply(config, records, &stats);
  EXPECT_EQ(stats.records_in - stats.records_out + stats.duplicated,
            stats.total_dropped());

  const auto analyzer = replay(degraded_records);
  const auto& tap = analyzer->tap_stats();
  // Corruption may or may not be fatal (a flipped body byte can still
  // parse), so quarantine is bracketed rather than exact here: at least
  // every truncated frame, at most truncated + corrupted.
  EXPECT_GE(tap.decode_failures, stats.truncated);
  EXPECT_LE(tap.decode_failures, stats.truncated + stats.corrupted);
  EXPECT_EQ(analyzer->detector_stats().losses_recorded, tap.decode_failures);
  // Clock skew produced regressions; the tap counted them.
  EXPECT_GT(tap.non_monotonic, 0u);
  for (const auto& d : analyzer->diagnoses()) {
    EXPECT_EQ(d.fault.degraded_confidence, d.fault.window_losses > 0);
  }
}

}  // namespace
}  // namespace gretel::core
