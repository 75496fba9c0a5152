// Determinism contracts of the ingest path (see docs/ARCHITECTURE.md,
// "Determinism"): for a fixed capture, the set *and order* of diagnoses,
// every report field, and the detector stats are identical whether records
// arrive one at a time or as one span, and whether the analysis kernels run
// SIMD or scalar.  The per-record run is the reference.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "tempest/workload.h"
#include "util/simd.h"

namespace gretel::core {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  TrainingReport training = learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

// Records one workload once; every analyzer configuration replays the same
// capture so differences can only come from the pipeline itself.
std::vector<net::WireRecord> record_workload(
    const tempest::WorkloadSpec& spec, std::uint64_t exec_seed) {
  auto& e = env();
  const auto w = make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), exec_seed);
  return executor.execute(w.launches);
}

// Feeds records one at a time through on_wire(), or the whole capture in
// one on_wire_batch() call.
std::unique_ptr<Analyzer> replay(const std::vector<net::WireRecord>& recs,
                                 bool batched = false) {
  auto& e = env();
  Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  auto analyzer = std::make_unique<Analyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, opt);
  if (batched) {
    analyzer->on_wire_batch(recs);
  } else {
    for (const auto& r : recs) analyzer->on_wire(r);
  }
  analyzer->finish();
  return analyzer;
}

void expect_identical(const Analyzer& reference, const Analyzer& other,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const auto& a = reference.diagnoses();
  const auto& b = other.diagnoses();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("diagnosis " + std::to_string(i));
    const auto& fa = a[i].fault;
    const auto& fb = b[i].fault;
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.offending_api, fb.offending_api);
    EXPECT_EQ(fa.detected_at, fb.detected_at);
    EXPECT_EQ(fa.matched_fingerprints, fb.matched_fingerprints);
    EXPECT_EQ(fa.theta, fb.theta);
    EXPECT_EQ(fa.beta_final, fb.beta_final);
    EXPECT_EQ(fa.candidates, fb.candidates);
    EXPECT_EQ(fa.window_start, fb.window_start);
    EXPECT_EQ(fa.window_end, fb.window_end);
    EXPECT_EQ(fa.window_losses, fb.window_losses);
    EXPECT_EQ(fa.degraded_confidence, fb.degraded_confidence);
    ASSERT_EQ(fa.error_events.size(), fb.error_events.size());
    for (std::size_t j = 0; j < fa.error_events.size(); ++j) {
      EXPECT_EQ(fa.error_events[j].api, fb.error_events[j].api);
      EXPECT_EQ(fa.error_events[j].ts, fb.error_events[j].ts);
      EXPECT_EQ(fa.error_events[j].status, fb.error_events[j].status);
      EXPECT_EQ(fa.error_events[j].conn_id, fb.error_events[j].conn_id);
    }
    ASSERT_EQ(fa.latency.has_value(), fb.latency.has_value());
    if (fa.latency) {
      EXPECT_EQ(fa.latency->api, fb.latency->api);
      EXPECT_EQ(fa.latency->when, fb.latency->when);
      EXPECT_EQ(fa.latency->alarm.t_seconds, fb.latency->alarm.t_seconds);
      EXPECT_EQ(fa.latency->alarm.magnitude, fb.latency->alarm.magnitude);
    }
    const auto& ra = a[i].root_cause;
    const auto& rb = b[i].root_cause;
    EXPECT_EQ(ra.expanded_search, rb.expanded_search);
    EXPECT_EQ(ra.degraded, rb.degraded);
    ASSERT_EQ(ra.causes.size(), rb.causes.size());
    for (std::size_t j = 0; j < ra.causes.size(); ++j) {
      EXPECT_EQ(ra.causes[j].kind, rb.causes[j].kind);
      EXPECT_EQ(ra.causes[j].node, rb.causes[j].node);
      EXPECT_EQ(ra.causes[j].detail, rb.causes[j].detail);
      EXPECT_EQ(ra.causes[j].score, rb.causes[j].score);
    }
  }
  const auto& sa = reference.detector_stats();
  const auto& sb = other.detector_stats();
  EXPECT_EQ(sa.events, sb.events);
  EXPECT_EQ(sa.rest_errors, sb.rest_errors);
  EXPECT_EQ(sa.rpc_errors, sb.rpc_errors);
  EXPECT_EQ(sa.operational_reports, sb.operational_reports);
  EXPECT_EQ(sa.performance_reports, sb.performance_reports);
  EXPECT_EQ(sa.suppressed_triggers, sb.suppressed_triggers);
}

TEST(IngestDeterminism, BatchedIngestIdenticalToPerEvent) {
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 3;
  spec.seed = 35;
  spec.window = SimDuration::seconds(120);
  const auto records = record_workload(spec, 350);

  const auto reference = replay(records);
  ASSERT_FALSE(reference->diagnoses().empty());

  // One batch holding the whole capture must be byte-identical to
  // per-event ingest.
  const auto run = replay(records, /*batched=*/true);
  expect_identical(*reference, *run, "whole-capture batch");
}

TEST(IngestDeterminism, ScalarKernelsIdenticalToSimd) {
  // The SIMD determinism contract end-to-end: forcing every util/simd.h
  // kernel onto its scalar reference must leave the full diagnosis stream
  // byte-identical.  (CI additionally builds a whole
  // leg with -DGRETEL_FORCE_SCALAR=ON; this test covers the in-process
  // runtime switch so one binary proves both families agree.)
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 3;
  spec.seed = 36;
  spec.window = SimDuration::seconds(120);
  const auto records = record_workload(spec, 360);

  const auto reference = replay(records);  // compiled kernel family
  ASSERT_FALSE(reference->diagnoses().empty());

  simd::set_force_scalar(true);
  const auto run = replay(records);
  simd::set_force_scalar(false);
  expect_identical(*reference, *run, "scalar kernels");
}

TEST(IngestDeterminism, CleanWorkloadStaysClean) {
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 15;
  spec.faults = 0;
  spec.seed = 34;
  const auto records = record_workload(spec, 340);

  const auto reference = replay(records);
  EXPECT_TRUE(reference->diagnoses().empty());
  const auto run = replay(records, /*batched=*/true);
  expect_identical(*reference, *run, "clean capture, one batch");
  EXPECT_TRUE(run->diagnoses().empty());
  EXPECT_EQ(run->detector_stats().events, run->tap_stats().decoded);
}

}  // namespace
}  // namespace gretel::core
