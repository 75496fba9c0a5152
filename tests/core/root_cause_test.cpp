// Direct unit tests for the root-cause engine (Algorithm 3), built on a
// hand-assembled fingerprint DB and metrics so each rule is isolated.
#include "gretel/root_cause.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gretel::core {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::NodeId;
using wire::ServiceKind;

class RootCauseTest : public ::testing::Test {
 protected:
  RootCauseTest() : deployment_(stack::Deployment::standard(2)) {
    nova_api_ = catalog_.add_rest(ServiceKind::Nova, wire::HttpMethod::Post,
                                  "/v2.1/servers");
    neutron_api_ = catalog_.add_rest(ServiceKind::Neutron,
                                     wire::HttpMethod::Post,
                                     "/v2.0/ports.json");
    rpc_compute_ = catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute",
                                    "build");

    Fingerprint fp;
    fp.op = wire::OpTemplateId(0);
    fp.name = "vm-create";
    fp.sequence = {nova_api_, rpc_compute_, neutron_api_};
    fp.state_sequence = fp.sequence;
    db_.add(fp);

    watcher_ = std::make_unique<monitor::DependencyWatcher>(&deployment_);
    engine_ = std::make_unique<RootCauseEngine>(&db_, &catalog_, &deployment_,
                                                &metrics_, watcher_.get());
  }

  // Seeds a flat resource series for every node, 0..60 s.  One (node,
  // kind, window) triple can be overridden with a surge level — mirroring
  // what the 1 Hz monitor would actually record during a perturbation.
  void seed_flat_metrics(std::optional<wire::NodeId> surge_node = {},
                         net::ResourceKind surge_kind =
                             net::ResourceKind::CpuPct,
                         int surge_from = 0, int surge_to = 0,
                         double surge_level = 0.0) {
    for (auto node : deployment_.node_ids()) {
      for (std::size_t k = 0; k < net::kResourceKinds; ++k) {
        const auto kind = static_cast<net::ResourceKind>(k);
        const double level =
            kind == net::ResourceKind::DiskFreeMb ? 100000.0 : 20.0;
        for (int t = 0; t < 60; ++t) {
          const bool surged = surge_node && node == *surge_node &&
                              kind == surge_kind && t >= surge_from &&
                              t < surge_to;
          metrics_.record(node, kind, t,
                          surged ? surge_level : level + 0.1 * (t % 3));
        }
      }
    }
  }

  FaultReport fault_with_error_nodes(NodeId a, NodeId b) {
    FaultReport fault;
    fault.offending_api = neutron_api_;
    fault.matched_fingerprints = {0};
    fault.window_start = SimTime::epoch() + SimDuration::seconds(20);
    fault.window_end = SimTime::epoch() + SimDuration::seconds(30);
    wire::Event err;
    err.dir = wire::Direction::Response;
    err.status = 500;
    err.src_node = a;
    err.dst_node = b;
    fault.error_events.push_back(err);
    return fault;
  }

  stack::Deployment deployment_;
  wire::ApiCatalog catalog_;
  FingerprintDb db_;
  monitor::MetricsStore metrics_;
  std::unique_ptr<monitor::DependencyWatcher> watcher_;
  std::unique_ptr<RootCauseEngine> engine_;
  wire::ApiId nova_api_, neutron_api_, rpc_compute_;
};

TEST_F(RootCauseTest, NodesForOperationsFollowServices) {
  const auto nodes = engine_->nodes_for_operations({0});
  // vm-create touches Nova, Neutron and the computes (NovaCompute).
  EXPECT_NE(std::find(nodes.begin(), nodes.end(),
                      deployment_.primary_node_for(ServiceKind::Nova)),
            nodes.end());
  EXPECT_NE(std::find(nodes.begin(), nodes.end(),
                      deployment_.primary_node_for(ServiceKind::Neutron)),
            nodes.end());
  for (auto compute : deployment_.nodes_for(ServiceKind::NovaCompute)) {
    EXPECT_NE(std::find(nodes.begin(), nodes.end(), compute), nodes.end());
  }
}

TEST_F(RootCauseTest, NodesForOperationsKeepsNestedLoopOrder) {
  // Fingerprints sharing services, in an order where a later fingerprint
  // revisits services an earlier one resolved.  The node order must be the
  // plain nested walk's (fingerprint, then API, then the service's nodes,
  // first appearance wins): find_causes ranks with an unstable sort, so
  // the order reaches the diagnosis.
  const auto glance_api = catalog_.add_rest(
      ServiceKind::Glance, wire::HttpMethod::Get, "/v2/images");
  const auto keystone_api = catalog_.add_rest(
      ServiceKind::Keystone, wire::HttpMethod::Post, "/v3/auth/tokens");
  const auto agent_rpc = catalog_.add_rpc(ServiceKind::NeutronAgent,
                                          "neutron-agent", "port_update");
  const std::vector<std::vector<wire::ApiId>> sequences = {
      {neutron_api_, agent_rpc, rpc_compute_, neutron_api_},
      {keystone_api, nova_api_, rpc_compute_, glance_api},
      {glance_api, agent_rpc, keystone_api, nova_api_, neutron_api_},
  };
  std::vector<FingerprintDb::Index> fps = {0};
  for (const auto& seq : sequences) {
    Fingerprint fp;
    fp.op = wire::OpTemplateId(static_cast<std::uint32_t>(fps.size()));
    fp.name = "shared-" + std::to_string(fps.size());
    fp.sequence = seq;
    fp.state_sequence = seq;
    fps.push_back(db_.add(fp));
  }

  auto nested_loop = [&](const std::vector<FingerprintDb::Index>& idxs) {
    std::vector<NodeId> out;
    for (auto idx : idxs) {
      for (auto api : db_.get(idx).sequence) {
        for (auto node : deployment_.nodes_for(catalog_.get(api).service)) {
          if (std::find(out.begin(), out.end(), node) == out.end())
            out.push_back(node);
        }
      }
    }
    return out;
  };

  const std::vector<std::vector<FingerprintDb::Index>> selections = {
      fps,
      {fps[3], fps[1], fps[0]},
      {fps[2], fps[2]},
      {fps[1]},
      {},
  };
  for (const auto& sel : selections) {
    const auto got = engine_->nodes_for_operations(sel);
    EXPECT_EQ(got, nested_loop(sel));
  }
  // The full selection spans several services over more than one node, so
  // the comparison above is not vacuous.
  EXPECT_GT(engine_->nodes_for_operations(fps).size(), 2u);
}

TEST_F(RootCauseTest, CleanStateYieldsNoCauses) {
  seed_flat_metrics();
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  EXPECT_TRUE(report.causes.empty());
  EXPECT_TRUE(report.expanded_search) << "clean endpoints -> expanded";
}

TEST_F(RootCauseTest, ResourceAnomalyOnErrorNode) {
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  // CPU surge inside the fault window only.
  seed_flat_metrics(neutron, net::ResourceKind::CpuPct, 20, 30, 95.0);
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  ASSERT_FALSE(report.causes.empty());
  EXPECT_FALSE(report.expanded_search);
  EXPECT_EQ(report.causes.front().node, neutron);
  EXPECT_EQ(report.causes.front().kind, CauseKind::ResourceAnomaly);
  EXPECT_NE(report.causes.front().detail.find("cpu"), std::string::npos);
}

TEST_F(RootCauseTest, SoftwareFailureOutranksResourceAnomaly) {
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  seed_flat_metrics(neutron, net::ResourceKind::CpuPct, 20, 30, 95.0);
  deployment_.node(neutron).inject_outage(
      {"neutron-server", SimTime::epoch(),
       SimTime::epoch() + SimDuration::minutes(5)});
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  ASSERT_GE(report.causes.size(), 2u);
  EXPECT_EQ(report.causes.front().kind, CauseKind::SoftwareFailure);
  EXPECT_EQ(report.causes.front().detail, "neutron-server");
}

TEST_F(RootCauseTest, ExpandsUpstreamWhenEndpointsClean) {
  seed_flat_metrics();
  // Crash on a compute node, which is NOT among the error endpoints.
  const auto computes = deployment_.nodes_for(ServiceKind::NovaCompute);
  deployment_.node(computes.front())
      .inject_outage({"neutron-plugin-linuxbridge-agent", SimTime::epoch(),
                      SimTime::epoch() + SimDuration::minutes(5)});

  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  ASSERT_FALSE(report.causes.empty());
  EXPECT_TRUE(report.expanded_search);
  EXPECT_EQ(report.causes.front().node, computes.front());
  EXPECT_EQ(report.causes.front().detail,
            "neutron-plugin-linuxbridge-agent");
}

TEST_F(RootCauseTest, AnomalyOutsideWindowIgnored) {
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  // Surge well before the fault window (and its 3 s pad).
  seed_flat_metrics(neutron, net::ResourceKind::CpuPct, 5, 10, 95.0);
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  EXPECT_TRUE(report.causes.empty());
}

TEST_F(RootCauseTest, DiskFloorViaAbsoluteRule) {
  // Disk has been nearly full the whole time: no *relative* anomaly, but
  // the absolute floor rule fires inside the window.  (Seed manually: the
  // flat helper would give the node a healthy disk series.)
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  for (int t = 0; t < 60; ++t) {
    metrics_.record(neutron, net::ResourceKind::CpuPct, t, 20.0);
    metrics_.record(neutron, net::ResourceKind::DiskFreeMb, t, 300.0);
  }
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  ASSERT_FALSE(report.causes.empty());
  bool disk = false;
  for (const auto& c : report.causes) {
    disk = disk || c.detail.find("disk") != std::string::npos;
  }
  EXPECT_TRUE(disk);
}

TEST_F(RootCauseTest, FullDiskAtZeroFreeIsReported) {
  // A full disk reads exactly 0 MB free (the node model clamps there) over
  // the whole history.  The flat series gives no relative verdict, so the
  // absolute floor rule must fire on the window level 0.
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  for (int t = 0; t < 60; ++t)
    metrics_.record(neutron, net::ResourceKind::DiskFreeMb, t, 0.0);
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine_->analyze(fault_with_error_nodes(nova, neutron));
  bool full_disk = false;
  for (const auto& c : report.causes) {
    full_disk = full_disk ||
                (c.kind == CauseKind::ResourceAnomaly && c.node == neutron &&
                 c.detail.find("free disk space below 1 GB") !=
                     std::string::npos);
  }
  EXPECT_TRUE(full_disk);
  EXPECT_FALSE(report.expanded_search);
}

TEST_F(RootCauseTest, StaleMetricsAreUnknownNotClean) {
  // Every series froze at t = 10 s, well before the 20–30 s fault window.
  // With staleness checking on, that is *not* "no anomaly": the engine
  // must flag the series stale, keep searching, and mark the report.
  for (auto node : deployment_.node_ids()) {
    for (std::size_t k = 0; k < net::kResourceKinds; ++k) {
      const auto kind = static_cast<net::ResourceKind>(k);
      for (int t = 0; t < 10; ++t) metrics_.record(node, kind, t, 20.0);
    }
  }
  RootCauseEngine::Options options;
  options.metric_staleness_s = 5.0;
  RootCauseEngine engine(&db_, &catalog_, &deployment_, &metrics_,
                         watcher_.get(), options);

  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  const auto report = engine.analyze(fault_with_error_nodes(nova, neutron));

  EXPECT_TRUE(report.causes.empty());
  EXPECT_TRUE(report.expanded_search) << "stale evidence -> keep looking";
  EXPECT_TRUE(report.monitoring_degraded);
  EXPECT_GT(report.stale_series, 0u);
  bool metric_gap = false;
  for (const auto& g : report.evidence_gaps) {
    metric_gap = metric_gap ||
                 (g.dependency.rfind("metric:", 0) == 0 &&
                  g.status == monitor::EvidenceStatus::Stale);
  }
  EXPECT_TRUE(metric_gap);
}

TEST_F(RootCauseTest, FreshMetricsPassStalenessGate) {
  // Same staleness knob, but the series cover the window: the gate must
  // not fire and legacy behavior is preserved.
  seed_flat_metrics();
  RootCauseEngine::Options options;
  options.metric_staleness_s = 5.0;
  RootCauseEngine engine(&db_, &catalog_, &deployment_, &metrics_,
                         watcher_.get(), options);
  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  const auto report = engine.analyze(fault_with_error_nodes(nova, neutron));
  EXPECT_FALSE(report.monitoring_degraded);
  EXPECT_EQ(report.stale_series, 0u);
}

TEST_F(RootCauseTest, ProbedWatcherZeroChaosMatchesOracle) {
  seed_flat_metrics();
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  deployment_.node(neutron).inject_outage(
      {"neutron-server", SimTime::epoch(),
       SimTime::epoch() + SimDuration::minutes(5)});

  monitor::DependencyWatcher probed(&deployment_, monitor::ProbeConfig{},
                                    monitor::MonitorChaosConfig{});
  ASSERT_TRUE(probed.probed());
  RootCauseEngine engine(&db_, &catalog_, &deployment_, &metrics_, &probed);

  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto fault = fault_with_error_nodes(nova, neutron);
  const auto oracle_report = engine_->analyze(fault);
  const auto probed_report = engine.analyze(fault);

  ASSERT_EQ(probed_report.causes.size(), oracle_report.causes.size());
  for (std::size_t i = 0; i < probed_report.causes.size(); ++i) {
    EXPECT_EQ(probed_report.causes[i].node, oracle_report.causes[i].node);
    EXPECT_EQ(probed_report.causes[i].detail, oracle_report.causes[i].detail);
    EXPECT_EQ(probed_report.causes[i].evidence,
              monitor::EvidenceStatus::Confirmed);
    EXPECT_DOUBLE_EQ(probed_report.causes[i].confidence, 1.0);
  }
  EXPECT_FALSE(probed_report.monitoring_degraded);
  EXPECT_DOUBLE_EQ(probed_report.probe_time_ms, 0.0);
}

TEST_F(RootCauseTest, WedgedMonitoringAgentYieldsGapsNotInnocence) {
  seed_flat_metrics();
  const auto neutron = deployment_.primary_node_for(ServiceKind::Neutron);
  // The daemon is down AND the node's monitoring agent is wedged: the
  // engine cannot confirm the failure, but it must say "could not
  // observe", not "clean".
  deployment_.node(neutron).inject_outage(
      {"neutron-server", SimTime::epoch(),
       SimTime::epoch() + SimDuration::minutes(5)});
  monitor::MonitorChaosConfig chaos;
  chaos.agent_outages.push_back({neutron, SimTime::epoch(),
                                 SimTime::epoch() + SimDuration::minutes(5),
                                 /*wedged=*/true});
  monitor::DependencyWatcher probed(&deployment_, monitor::ProbeConfig{},
                                    chaos);
  RootCauseEngine engine(&db_, &catalog_, &deployment_, &metrics_, &probed);

  const auto nova = deployment_.primary_node_for(ServiceKind::Nova);
  const auto report = engine.analyze(fault_with_error_nodes(nova, neutron));

  for (const auto& c : report.causes) {
    EXPECT_NE(c.detail, "neutron-server") << "unobservable, not confirmable";
  }
  EXPECT_TRUE(report.expanded_search);
  EXPECT_TRUE(report.monitoring_degraded);
  EXPECT_GT(report.probe_time_ms, 0.0);
  bool gap_on_neutron = false;
  for (const auto& g : report.evidence_gaps) {
    gap_on_neutron = gap_on_neutron ||
                     (g.node == neutron && g.dependency == "neutron-server" &&
                      g.status == monitor::EvidenceStatus::Unknown);
  }
  EXPECT_TRUE(gap_on_neutron);
}

}  // namespace
}  // namespace gretel::core
