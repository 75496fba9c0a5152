#include "stack/workflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/capture.h"
#include "stack/faults.h"

namespace gretel::stack {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::ApiCatalog;
using wire::ApiKind;
using wire::HttpMethod;
using wire::ServiceKind;

// A small fixed operation: POST -> RPC -> GET with a status poll.
class WorkflowTest : public ::testing::Test {
 protected:
  WorkflowTest() : deployment_(Deployment::standard(2)) {
    infra_ = register_infra_apis(catalog_);
    post_ = catalog_.add_rest(ServiceKind::Nova, HttpMethod::Post,
                              "/v2.1/servers");
    rpc_ = catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute",
                            "build_and_run_instance");
    get_ = catalog_.add_rest(ServiceKind::Glance, HttpMethod::Get,
                             "/v2/images/<ID>");
    poll_ = catalog_.add_rest(ServiceKind::Nova, HttpMethod::Get,
                              "/v2.1/servers/<ID>");

    op_.id = wire::OpTemplateId(0);
    op_.name = "mini-vm-create";
    op_.category = Category::Compute;
    op_.poll_api = poll_;
    op_.steps = {
        {post_, ServiceKind::Horizon, ServiceKind::Nova,
         SimDuration::millis(10), false, 1.0},
        {rpc_, ServiceKind::Nova, ServiceKind::NovaCompute,
         SimDuration::millis(20), false, 1.0},
        {get_, ServiceKind::NovaCompute, ServiceKind::Glance,
         SimDuration::millis(5), false, 1.0},
        {poll_, ServiceKind::Horizon, ServiceKind::Nova,
         SimDuration::millis(4), false, 1.0},
    };
  }

  WorkflowExecutor::Options quiet_options() {
    WorkflowExecutor::Options opt;
    opt.emit_heartbeats = false;
    opt.emit_keystone_auth = false;
    opt.duplicate_get_prob = 0.0;
    return opt;
  }

  std::vector<net::WireRecord> run(std::vector<Launch> launches,
                                   WorkflowExecutor::Options opt) {
    WorkflowExecutor exec(&deployment_, &catalog_, &infra_, 42, opt);
    return exec.execute(launches);
  }

  Deployment deployment_;
  ApiCatalog catalog_;
  InfraApis infra_;
  wire::ApiId post_, rpc_, get_, poll_;
  OperationTemplate op_;
};

TEST_F(WorkflowTest, SuccessfulRunEmitsRequestResponsePairs) {
  const auto records = run({{&op_, SimTime::epoch(), std::nullopt}},
                           quiet_options());
  EXPECT_EQ(records.size(), op_.steps.size() * 2);
}

TEST_F(WorkflowTest, RecordsTimeSorted) {
  std::vector<Launch> launches{
      {&op_, SimTime::epoch(), std::nullopt},
      {&op_, SimTime::epoch() + SimDuration::millis(5), std::nullopt}};
  const auto records = run(launches, quiet_options());
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const auto& a, const auto& b) { return a.ts < b.ts; }));
}

TEST_F(WorkflowTest, DecodableEndToEnd) {
  const auto records = run({{&op_, SimTime::epoch(), std::nullopt}},
                           quiet_options());
  net::CaptureTap tap(&catalog_, deployment_.service_by_port());
  std::size_t decoded = 0;
  for (const auto& r : records) decoded += tap.decode(r).has_value();
  EXPECT_EQ(decoded, records.size());
  EXPECT_EQ(tap.stats().decode_failures, 0u);
  EXPECT_EQ(tap.stats().unknown_api, 0u);
}

TEST_F(WorkflowTest, DeterministicForSeed) {
  const auto a = run({{&op_, SimTime::epoch(), std::nullopt}},
                     quiet_options());
  const auto b = run({{&op_, SimTime::epoch(), std::nullopt}},
                     quiet_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].ts, b[i].ts);
  }
}

TEST_F(WorkflowTest, RestFaultEmitsErrorResponseAndAborts) {
  Launch launch{&op_, SimTime::epoch(), conflict_fault(0)};
  const auto records = run({launch}, quiet_options());
  // Step 0 request+response, then the poll relay request+response.
  ASSERT_EQ(records.size(), 4u);

  net::CaptureTap tap(&catalog_, deployment_.service_by_port());
  std::vector<wire::Event> events;
  for (const auto& r : records) {
    auto ev = tap.decode(r);
    ASSERT_TRUE(ev.has_value());
    events.push_back(*ev);
  }
  EXPECT_EQ(events[0].api, post_);
  EXPECT_TRUE(events[1].is_error());
  EXPECT_EQ(events[1].status, 409);
  EXPECT_EQ(events[2].api, poll_);
  EXPECT_TRUE(events[3].is_error());
}

TEST_F(WorkflowTest, RpcFaultRelaysViaRestPoll) {
  Launch launch{&op_, SimTime::epoch(),
                no_valid_host_fault(/*step=*/1)};
  const auto records = run({launch}, quiet_options());
  net::CaptureTap tap(&catalog_, deployment_.service_by_port());

  bool saw_rpc_error = false;
  bool saw_rest_error = false;
  for (const auto& r : records) {
    const auto ev = tap.decode(r);
    ASSERT_TRUE(ev.has_value());
    if (ev->is_error() && ev->kind == ApiKind::Rpc) saw_rpc_error = true;
    if (ev->is_error() && ev->kind == ApiKind::Rest) {
      saw_rest_error = true;
      EXPECT_EQ(ev->api, poll_);
      EXPECT_GE(ev->status, 400);
      EXPECT_NE(r.bytes.find("No valid host"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_rpc_error);
  EXPECT_TRUE(saw_rest_error);
}

TEST_F(WorkflowTest, NonAbortingFaultContinues) {
  OperationalFault fault;
  fault.fail_step = 0;
  fault.status = 409;
  fault.abort = false;
  const auto records =
      run({{&op_, SimTime::epoch(), fault}}, quiet_options());
  EXPECT_EQ(records.size(), op_.steps.size() * 2);
}

TEST_F(WorkflowTest, TransientStepsVaryAcrossRuns) {
  auto op = op_;
  ApiStep transient = op.steps[2];
  transient.transient = true;
  transient.transient_prob = 0.5;
  op.steps.insert(op.steps.begin() + 2, transient);

  std::vector<Launch> launches;
  for (int i = 0; i < 40; ++i) {
    launches.push_back(
        {&op, SimTime::epoch() + SimDuration::seconds(i), std::nullopt});
  }
  const auto records = run(launches, quiet_options());
  // Sizes between all-absent and all-present bounds.
  EXPECT_GT(records.size(), 40u * op_.steps.size() * 2);
  EXPECT_LT(records.size(), 40u * (op_.steps.size() + 1) * 2);
}

TEST_F(WorkflowTest, HeartbeatsEmittedAsNoise) {
  auto opt = quiet_options();
  opt.emit_heartbeats = true;
  opt.heartbeat_period = SimDuration::seconds(2);
  std::vector<Launch> launches{
      {&op_, SimTime::epoch(), std::nullopt},
      {&op_, SimTime::epoch() + SimDuration::seconds(20), std::nullopt}};
  const auto records = run(launches, opt);

  std::size_t noise = 0;
  for (const auto& r : records) noise += r.truth_noise ? 1 : 0;
  EXPECT_GT(noise, 10u);  // ~10s span, 2 computes, 2s period, pairs
}

TEST_F(WorkflowTest, KeystoneAuthPrecedesOperation) {
  auto opt = quiet_options();
  opt.emit_keystone_auth = true;
  const auto records = run({{&op_, SimTime::epoch(), std::nullopt}}, opt);
  ASSERT_GE(records.size(), 2u);
  net::CaptureTap tap(&catalog_, deployment_.service_by_port());
  const auto first = tap.decode(records.front());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->api, infra_.keystone_auth);
  EXPECT_TRUE(first->truth_noise);
}

TEST_F(WorkflowTest, LatencyInjectionRaisesObservedLatency) {
  // Baseline.
  auto records = run({{&op_, SimTime::epoch(), std::nullopt}},
                     quiet_options());
  const auto base_latency = records[5].ts - records[4].ts;  // GET exchange

  // With 50ms injected on the Glance node (tc analog).
  deployment_.inject_link_latency(ServiceKind::Glance, SimTime::epoch(),
                                  SimTime::epoch() + SimDuration::minutes(5),
                                  SimDuration::millis(50));
  records = run({{&op_, SimTime::epoch(), std::nullopt}}, quiet_options());
  const auto injected_latency = records[5].ts - records[4].ts;
  EXPECT_GT(injected_latency, base_latency + SimDuration::millis(90));
}

TEST_F(WorkflowTest, CpuLoadScalesServiceTime) {
  auto records = run({{&op_, SimTime::epoch(), std::nullopt}},
                     quiet_options());
  const auto base = records[1].ts - records[0].ts;  // POST to Nova

  deployment_.inject_cpu_surge(ServiceKind::Nova, SimTime::epoch(),
                               SimTime::epoch() + SimDuration::minutes(5),
                               90.0);
  records = run({{&op_, SimTime::epoch(), std::nullopt}}, quiet_options());
  const auto loaded = records[1].ts - records[0].ts;
  EXPECT_GT(loaded.count(), base.count() * 2);
}

TEST_F(WorkflowTest, InstanceIdsSequential) {
  WorkflowExecutor exec(&deployment_, &catalog_, &infra_, 1,
                        quiet_options());
  EXPECT_EQ(exec.peek_next_instance(), wire::OpInstanceId(1));
  std::vector<Launch> launches{{&op_, SimTime::epoch(), std::nullopt},
                               {&op_, SimTime::epoch(), std::nullopt}};
  const auto records = exec.execute(launches);
  EXPECT_EQ(exec.peek_next_instance(), wire::OpInstanceId(3));

  std::set<std::uint32_t> instances;
  for (const auto& r : records) {
    if (r.truth_instance.valid()) instances.insert(r.truth_instance.value());
  }
  EXPECT_EQ(instances, (std::set<std::uint32_t>{1, 2}));
}

TEST_F(WorkflowTest, IdentifiersShareTenantAcrossInstances) {
  WorkflowExecutor exec(&deployment_, &catalog_, &infra_, 1,
                        quiet_options());
  std::vector<Launch> launches{{&op_, SimTime::epoch(), std::nullopt}};
  const auto records = exec.execute(launches);
  ASSERT_FALSE(records.empty());
  ASSERT_GE(records[0].identifiers.size(), 2u);
  // Tenant id in the 1000..1039 range (40 shared tenants).
  EXPECT_GE(records[0].identifiers[0], 1000u);
  EXPECT_LT(records[0].identifiers[0], 1040u);
}

TEST(InfraApis, RegisteredOnce) {
  ApiCatalog catalog;
  const auto a = register_infra_apis(catalog);
  const auto b = register_infra_apis(catalog);
  EXPECT_EQ(a.keystone_auth, b.keystone_auth);
  EXPECT_EQ(a.heartbeat, b.heartbeat);
  EXPECT_EQ(catalog.size(), 4u);
}

}  // namespace
}  // namespace gretel::stack
