// Fingerprint stability: the campaign's failure-mode signature must be
// byte-identical across kernel families (the determinism contract), and
// invariant under cosmetic report differences — cause
// ordering within a score tie, probe timing jitter, float scores.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "campaign/fingerprint.h"
#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "tempest/workload.h"
#include "util/simd.h"

namespace gretel::campaign {
namespace {

using util::SimDuration;
using util::SimTime;

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

// One faulty workload recorded once; every replay sees identical bytes.
std::vector<net::WireRecord> record_faulty_workload() {
  auto& e = env();
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 2;
  spec.window = SimDuration::seconds(30);
  spec.seed = 505;
  const auto w = make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), 606);
  return executor.execute(w.launches);
}

std::uint64_t fingerprint_of(const std::vector<net::WireRecord>& records) {
  auto& e = env();
  core::Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  core::Analyzer analyzer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          opt);
  monitor::ResourceMonitor mon(&e.deployment, SimDuration::seconds(1), 7);
  mon.sample_range(SimTime::epoch(),
                   records.back().ts + SimDuration::seconds(3),
                   analyzer.metrics());
  for (const auto& r : records) analyzer.on_wire(r);
  analyzer.finish();
  EXPECT_FALSE(analyzer.diagnoses().empty());
  return report_fingerprint(analyzer.diagnoses(), e.catalog.apis(),
                            e.training.db);
}

TEST(CampaignFingerprint, StableAcrossKernelFamilies) {
  const auto records = record_faulty_workload();
  const auto simd_fp = fingerprint_of(records);
  simd::set_force_scalar(true);
  const auto scalar_fp = fingerprint_of(records);
  simd::set_force_scalar(false);
  EXPECT_EQ(scalar_fp, simd_fp);
}

TEST(CampaignFingerprint, Fnv1a64GoldenVectors) {
  // Offset basis and standard test vectors pin the hash contract.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fingerprint_hex(0xCBF29CE484222325ull), "cbf29ce484222325");
}

TEST(CampaignFingerprint, EmptyDiagnosisSetHasWellKnownSignature) {
  auto& e = env();
  EXPECT_EQ(report_fingerprint({}, e.catalog.apis(), e.training.db),
            fnv1a64("[]"));
}

core::Diagnosis make_diagnosis() {
  auto& e = env();
  core::Diagnosis d;
  d.fault.kind = core::FaultKind::Operational;
  d.fault.offending_api = e.catalog.well_known().neutron_post_ports;
  d.fault.matched_fingerprints = {0, 1};
  d.fault.theta = 0.991;
  d.fault.beta_final = 12;
  d.fault.candidates = 3;
  d.fault.detected_at = SimTime::epoch() + SimDuration::seconds(11);

  core::Cause cpu;
  cpu.kind = core::CauseKind::ResourceAnomaly;
  cpu.node = wire::NodeId(1);
  cpu.detail = "cpu level 93.1 vs baseline 8.2";
  cpu.score = 4.2;
  core::Cause daemon;
  daemon.kind = core::CauseKind::SoftwareFailure;
  daemon.node = wire::NodeId(2);
  daemon.detail = "ntpd";
  daemon.score = 4.2;  // tied with the cpu cause
  d.root_cause.causes = {cpu, daemon};
  d.root_cause.probe_time_ms = 17.5;
  return d;
}

TEST(CampaignFingerprint, CosmeticDifferencesDoNotChangeSignature) {
  auto& e = env();
  const auto base = make_diagnosis();
  std::vector<core::Diagnosis> a{base};
  const auto golden =
      report_fingerprint(a, e.catalog.apis(), e.training.db);

  // Cause order within the score tie is presentation, not conclusion.
  auto reordered = base;
  std::swap(reordered.root_cause.causes[0], reordered.root_cause.causes[1]);
  // Probe timing jitter, detection internals, and float scores likewise.
  reordered.root_cause.probe_time_ms = 99.25;
  reordered.fault.theta = 0.984;
  reordered.fault.beta_final = 64;
  reordered.fault.candidates = 9;
  reordered.fault.detected_at = SimTime::epoch() + SimDuration::seconds(44);
  reordered.root_cause.causes[0].score = 0.5;
  reordered.root_cause.causes[1].score = 9.5;
  // Matched set order is storage order, not meaning.
  reordered.fault.matched_fingerprints = {1, 0};
  std::vector<core::Diagnosis> b{reordered};
  EXPECT_EQ(report_fingerprint(b, e.catalog.apis(), e.training.db), golden);
}

TEST(CampaignFingerprint, StructuralDifferencesChangeSignature) {
  auto& e = env();
  const auto base = make_diagnosis();
  std::vector<core::Diagnosis> a{base};
  const auto golden =
      report_fingerprint(a, e.catalog.apis(), e.training.db);

  // Weaker evidence is a different failure mode.
  auto weaker = base;
  weaker.root_cause.causes[1].evidence = monitor::EvidenceStatus::Suspected;
  std::vector<core::Diagnosis> b{weaker};
  EXPECT_NE(report_fingerprint(b, e.catalog.apis(), e.training.db), golden);

  // So is an extra cause, a degraded flag, or a different match set.
  auto extra = base;
  extra.root_cause.causes.push_back(base.root_cause.causes[0]);
  extra.root_cause.causes.back().node = wire::NodeId(0);
  std::vector<core::Diagnosis> c{extra};
  EXPECT_NE(report_fingerprint(c, e.catalog.apis(), e.training.db), golden);

  auto degraded = base;
  degraded.root_cause.degraded = true;
  std::vector<core::Diagnosis> dd{degraded};
  EXPECT_NE(report_fingerprint(dd, e.catalog.apis(), e.training.db), golden);

  auto fewer = base;
  fewer.fault.matched_fingerprints = {0};
  std::vector<core::Diagnosis> ee{fewer};
  EXPECT_NE(report_fingerprint(ee, e.catalog.apis(), e.training.db), golden);
}

TEST(CampaignFingerprint, ReportOrderWithinSetIsIrrelevant) {
  auto& e = env();
  auto d1 = make_diagnosis();
  auto d2 = make_diagnosis();
  d2.fault.matched_fingerprints = {0};
  std::vector<core::Diagnosis> ab{d1, d2};
  std::vector<core::Diagnosis> ba{d2, d1};
  EXPECT_EQ(report_fingerprint(ab, e.catalog.apis(), e.training.db),
            report_fingerprint(ba, e.catalog.apis(), e.training.db));
}

}  // namespace
}  // namespace gretel::campaign
