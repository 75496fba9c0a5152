// Tests of the benchmark's measurement helpers (src/bench_util.h).
#include "bench_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace {

using gretel::core::Cause;
using gretel::core::CauseKind;
using gretel::core::Diagnosis;
using gretel::wire::ApiId;
using gretel::wire::Event;
using gretel::wire::NodeId;
using gretel::wire::OpInstanceId;
using gretel::wire::OpTemplateId;
using perfbench::SpanTracer;

// ---- Percentiles ----------------------------------------------------------

TEST(Percentile, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(perfbench::nearest_rank(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(perfbench::nearest_rank(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(perfbench::nearest_rank(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(perfbench::nearest_rank({7.0}, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(perfbench::nearest_rank({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyondCountsStrictlyAbove) {
  EXPECT_EQ(perfbench::samples_beyond(100, 0.95), 5u);
  EXPECT_EQ(perfbench::samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(perfbench::samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(perfbench::samples_beyond(0, 0.95), 0u);
  EXPECT_EQ(perfbench::samples_beyond(20, 0.50), 10u);
}

TEST(Percentile, TenBeyondRuleSizesTheRun) {
  EXPECT_EQ(perfbench::min_samples_for(0.95), 200u);
  EXPECT_EQ(perfbench::min_samples_for(0.99), 1000u);
  EXPECT_EQ(perfbench::min_samples_for(0.50), 20u);
}

TEST(Percentile, SummaryFlagsUnsupportedP95) {
  std::vector<double> few(199, 1.0);
  EXPECT_FALSE(perfbench::summarize_latency(few).p95_supported);
  std::vector<double> enough;
  for (int i = 200; i >= 1; --i) enough.push_back(i);  // unsorted input
  const auto s = perfbench::summarize_latency(enough);
  EXPECT_TRUE(s.p95_supported);
  EXPECT_EQ(s.samples, 200u);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.p95, 190.0);
}

TEST(Percentile, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

// ---- Spans ----------------------------------------------------------------

TEST(SpanTracer, SelfTimeSubtractsDirectChildrenOnly) {
  SpanTracer t;
  // root [0, 100): child a [10, 40) with grandchild [15, 25); child b [50, 90)
  const auto root = t.begin(0, 0, 0);
  const auto a = t.begin(1, 10, 5);
  const auto g = t.begin(2, 15, 6);
  t.end(25, 9);   // grandchild: 3 allocs
  t.end(40, 10);  // a: 5 allocs total, 2 self
  const auto b = t.begin(1, 50, 10);
  t.end(90, 14);  // b: 4 allocs
  t.end(100, 20);
  EXPECT_EQ(t.open_depth(), 0u);

  const auto& s = t.spans();
  EXPECT_EQ(s[g].self_ns(), 10);
  EXPECT_EQ(s[a].self_ns(), 30 - 10);
  EXPECT_EQ(s[b].self_ns(), 40);
  EXPECT_EQ(s[root].self_ns(), 100 - 30 - 40);
  EXPECT_EQ(s[g].parent, static_cast<std::int32_t>(a));
  EXPECT_EQ(s[a].parent, static_cast<std::int32_t>(root));
  EXPECT_EQ(s[g].self_allocs(), 3u);
  EXPECT_EQ(s[a].self_allocs(), 2u);
  EXPECT_EQ(s[b].self_allocs(), 4u);
  EXPECT_EQ(s[root].self_allocs(), 20u - 5u - 4u);

  // Self times add up to the root span's duration.
  std::int64_t self_sum = 0;
  for (const auto& span : s) self_sum += span.self_ns();
  EXPECT_EQ(self_sum, s[root].duration_ns());
}

TEST(SpanTracer, SiblingRootsAndRelabel) {
  SpanTracer t;
  const auto first = t.begin(3, 0, 0);
  t.end(7, 0);
  const auto second = t.begin(4, 10, 0);
  t.end(12, 0);
  t.set_layer(first, 9);
  EXPECT_EQ(t.spans()[first].layer, 9);
  EXPECT_EQ(t.spans()[second].layer, 4);
  EXPECT_EQ(t.spans()[second].parent, -1);
  EXPECT_EQ(t.spans()[first].self_ns() + t.spans()[second].self_ns(), 9);
}

// ---- Fault scoring ---------------------------------------------------------

Event error_event(ApiId api, std::uint32_t instance) {
  Event e;
  e.api = api;
  e.dir = gretel::wire::Direction::Response;
  e.status = 500;
  e.truth_instance = OpInstanceId(instance);
  return e;
}

Diagnosis diagnosis(ApiId offending, std::vector<Event> errors,
                    std::vector<std::uint32_t> matched) {
  Diagnosis d;
  d.fault.offending_api = offending;
  d.fault.error_events = std::move(errors);
  d.fault.matched_fingerprints = std::move(matched);
  return d;
}

TEST(FaultScoring, HandBuiltDiagnosisSet) {
  const ApiId boot(1), attach(2), other(3);
  // Fingerprint i belongs to operation template 10 + i.
  const std::vector<OpTemplateId> op_of{OpTemplateId(10), OpTemplateId(11),
                                        OpTemplateId(12)};
  // Fault on instance 5 (op 11) is anchored by the first diagnosis even
  // though the second one also carries its error as foreign context; the
  // second diagnosis anchors instance 6 (op 12) but did not match it.
  // Instance 7 is named by nobody.
  const std::vector<Diagnosis> ds{
      diagnosis(boot, {error_event(boot, 5)}, {1}),
      diagnosis(attach, {error_event(boot, 5), error_event(attach, 6)}, {0}),
  };
  const std::vector<perfbench::InjectedFault> faults{
      {5, OpTemplateId(11)}, {6, OpTemplateId(12)}, {7, OpTemplateId(10)}};
  const auto score = perfbench::score_faults(ds, faults, op_of);
  EXPECT_EQ(score.injected, 3u);
  EXPECT_EQ(score.detected, 2u);
  EXPECT_EQ(score.identified, 1u);

  // Containment fills in when no diagnosis anchors the fault.
  const std::vector<Diagnosis> contained{
      diagnosis(other, {error_event(boot, 7)}, {0})};
  const auto s2 = perfbench::score_faults(contained, faults, op_of);
  EXPECT_EQ(s2.detected, 1u);
  EXPECT_EQ(s2.identified, 1u);
}

TEST(FaultScoring, NonErrorsAndUnlabelledEventsNameNothing) {
  const ApiId api(1);
  Event ok = error_event(api, 5);
  ok.status = 200;
  Event unlabelled = error_event(api, 5);
  unlabelled.truth_instance = OpInstanceId();
  const std::vector<Diagnosis> ds{diagnosis(api, {ok, unlabelled}, {0})};
  const std::vector<perfbench::InjectedFault> faults{{5, OpTemplateId(10)}};
  const std::vector<OpTemplateId> op_of{OpTemplateId(10)};
  const auto score = perfbench::score_faults(ds, faults, op_of);
  EXPECT_EQ(score.detected, 0u);
  EXPECT_EQ(score.identified, 0u);
}

TEST(FaultScoring, LocalizedCountsEnvCauseOnEnvNodesOnly) {
  auto cause = [](NodeId n, const char* detail) {
    Cause c;
    c.kind = CauseKind::ResourceAnomaly;
    c.node = n;
    c.detail = detail;
    return c;
  };
  std::vector<Diagnosis> ds(4);
  ds[0].root_cause.causes = {cause(NodeId(4), "cpu level 97.0 vs 9.0")};
  ds[1].root_cause.causes = {cause(NodeId(1), "cpu level 97.0 vs 9.0")};
  ds[2].root_cause.causes = {cause(NodeId(5), "disk free 10 vs 900")};
  Cause sw = cause(NodeId(5), "cpu");
  sw.kind = CauseKind::SoftwareFailure;
  ds[3].root_cause.causes = {sw};
  const std::vector<NodeId> computes{NodeId(4), NodeId(5), NodeId(6)};
  EXPECT_EQ(perfbench::diagnoses_localized(ds, computes, "cpu"), 1u);
}

}  // namespace
