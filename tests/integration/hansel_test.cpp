#include "hansel/hansel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "stack/workflow.h"
#include "tempest/workload.h"

namespace gretel::hansel {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::Event;

Event make_event(double t_s, bool error = false, std::uint32_t instance = 0) {
  Event ev;
  ev.ts = SimTime::epoch() +
          SimDuration::nanos(static_cast<std::int64_t>(t_s * 1e9));
  ev.dir = wire::Direction::Response;
  ev.status = error ? 500 : 200;
  if (instance) ev.truth_instance = wire::OpInstanceId(instance);
  return ev;
}

// One message carrying payload identifiers `idents`.
void feed(Hansel& h, double t_s, const std::vector<std::uint32_t>& idents,
          bool error = false, std::uint32_t instance = 0) {
  h.on_event(make_event(t_s, error, instance), idents);
}

TEST(Hansel, NoErrorNoChain) {
  Hansel h;
  feed(h, 0.0, {1});
  feed(h, 1.0, {1});
  h.flush();
  EXPECT_TRUE(h.chains().empty());
  EXPECT_EQ(h.stats().events, 2u);
}

TEST(Hansel, ErrorChainLinksSharedIdentifiers) {
  Hansel h;
  feed(h, 0.0, {7, 100});
  feed(h, 1.0, {7, 200});
  feed(h, 2.0, {200}, /*error=*/true);
  feed(h, 3.0, {999});  // unrelated
  h.flush();
  ASSERT_EQ(h.chains().size(), 1u);
  EXPECT_EQ(h.chains()[0].events.size(), 3u);
}

TEST(Hansel, ChainEventsTimeSorted) {
  Hansel h;
  feed(h, 2.0, {5}, true);
  feed(h, 0.5, {5});
  feed(h, 1.5, {5});
  h.flush();
  ASSERT_EQ(h.chains().size(), 1u);
  const auto& evs = h.chains()[0].events;
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LE(evs[i - 1].ts, evs[i].ts);
  }
}

TEST(Hansel, ReportDelayedToBucketClose) {
  // The paper's §9.2 point: a 30 s buffer means ~30 s reporting latency.
  Hansel h;
  feed(h, 0.0, {3}, true);
  feed(h, 1.0, {3});
  EXPECT_TRUE(h.chains().empty()) << "nothing reported inside the bucket";
  feed(h, 31.0, {4});  // crosses the bucket boundary
  ASSERT_EQ(h.chains().size(), 1u);
  EXPECT_GE((h.chains()[0].reported_at - SimTime::epoch()).to_seconds(),
            30.0);
}

TEST(Hansel, BucketsSeparateUnrelatedErrors) {
  Hansel h;
  feed(h, 0.0, {1}, true);
  feed(h, 40.0, {1}, true);  // same tenant, next bucket
  h.flush();
  EXPECT_EQ(h.chains().size(), 2u);
}

TEST(Hansel, TransitiveLinking) {
  Hansel h;
  feed(h, 0.0, {1, 2});
  feed(h, 1.0, {2, 3});
  feed(h, 2.0, {3}, true);
  h.flush();
  ASSERT_EQ(h.chains().size(), 1u);
  EXPECT_EQ(h.chains()[0].events.size(), 3u);
}

TEST(Hansel, OverLinksOperationsSharingTenant) {
  // GRETEL-vs-HANSEL point (5) in §9.2: common identifiers (tenant id) link
  // the faulty operation with unrelated successful ones.
  Hansel h;
  feed(h, 0.0, {42, 100}, false, /*instance=*/1);
  feed(h, 1.0, {42, 200}, false, /*instance=*/2);
  feed(h, 2.0, {42, 300}, true, /*instance=*/3);
  h.flush();
  ASSERT_EQ(h.chains().size(), 1u);
  EXPECT_EQ(h.chains()[0].distinct_instances(), 3u);
}

TEST(Hansel, RealWorkloadChainsCoverInjectedFault) {
  auto catalog = tempest::TempestCatalog::build(41, 0.03);
  auto deployment = stack::Deployment::standard(3);
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 1;
  spec.seed = 9;
  const auto w = make_parallel_workload(catalog, spec);

  stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                   &catalog.infra(), 55);
  const auto records = executor.execute(w.launches);

  net::CaptureTap tap(&catalog.apis(), deployment.service_by_port());
  Hansel h;
  for (const auto& r : records) {
    if (auto ev = tap.decode(r)) h.on_event(*ev, r.identifiers);
  }
  h.flush();

  ASSERT_FALSE(h.chains().empty());
  const auto faulty_instance =
      static_cast<std::uint32_t>(w.faulty_launch_idx.front() + 1);
  bool covered = false;
  std::size_t linked = 0;
  for (const auto& chain : h.chains()) {
    for (const auto& ev : chain.events) {
      if (ev.truth_instance.valid() &&
          ev.truth_instance.value() == faulty_instance) {
        covered = true;
        linked = chain.distinct_instances();
      }
    }
  }
  EXPECT_TRUE(covered);
  // The chain covers at least the faulty operation; over-linking through
  // shared tenant ids (§9.2 point 5) is asserted deterministically in
  // OverLinksOperationsSharingTenant above.
  EXPECT_GE(linked, 1u);
}

TEST(HanselExtract, NumericTokens) {
  const auto ids = Hansel::extract_identifiers(
      R"({"tenant_id": "1003", "size": 42, "port": 8080})");
  // 1003 and 8080 qualify (4-10 digits); 42 is too short.
  EXPECT_NE(std::find(ids.begin(), ids.end(), 1003u), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 8080u), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), 42u), ids.end());
}

TEST(HanselExtract, UuidTokensHashedConsistently) {
  const auto a = Hansel::extract_identifiers(
      "id=0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9");
  const auto b = Hansel::extract_identifiers(
      "other prefix 0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9 suffix");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
  const auto c = Hansel::extract_identifiers(
      "id=0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8fa");  // one char differs
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NE(a[0], c[0]);
}

TEST(HanselExtract, IgnoresShortProtocolNumbers) {
  // Status codes and version digits must not become identifiers.
  const auto ids =
      Hansel::extract_identifiers("HTTP/1.1 409 Conflict\r\n\r\n");
  EXPECT_TRUE(ids.empty());
}

TEST(HanselExtract, EmptyPayload) {
  EXPECT_TRUE(Hansel::extract_identifiers("").empty());
  EXPECT_TRUE(Hansel::extract_identifiers("no tokens here!").empty());
}

TEST(HanselExtract, OnMessageStitchesViaPayload) {
  Hansel h;
  // Two messages share no transport identifiers, but both carry the same
  // tenant id in their payloads.
  net::WireRecord a, b;
  a.bytes = R"({"tenant_id": "1007"})";
  b.bytes = R"({"tenant_id": "1007", "oops": true})";
  h.on_message(a, make_event(0.0));
  h.on_message(b, make_event(1.0, /*error=*/true));
  h.flush();
  ASSERT_EQ(h.chains().size(), 1u);
  EXPECT_EQ(h.chains()[0].events.size(), 2u);
}

TEST(Hansel, StatsCountUnions) {
  Hansel h;
  feed(h, 0.0, {1});
  feed(h, 1.0, {1});
  EXPECT_GE(h.stats().unions, 1u);
}

}  // namespace
}  // namespace gretel::hansel
