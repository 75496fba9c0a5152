// Reproduces the §3.1 motivation scenarios as a head-to-head comparison:
// GRETEL vs HANSEL vs log analysis at ERROR and WARNING levels, on the
// paper's three representative cases.  For each tool we report whether it
// detects the fault, names the high-level operation, finds the root cause,
// and how long after the fault its report becomes available.
#include <cstdio>
#include <optional>

#include "bench/harness.h"
#include "hansel/hansel.h"
#include "logs/log_analysis.h"
#include "monitor/metrics.h"
#include "stack/workflow.h"

namespace {

using namespace gretel;
using util::SimDuration;
using util::SimTime;

struct Row {
  const char* tool;
  bool detects = false;
  bool names_operation = false;
  bool finds_root_cause = false;
  double latency_s = -1.0;  // from fault to report availability
};

void print_rows(const char* title, std::span<const Row> rows) {
  std::printf("\n%s\n", title);
  std::printf("  %-22s %-9s %-12s %-12s %-10s\n", "tool", "detects",
              "names op", "root cause", "latency");
  for (const auto& r : rows) {
    char latency[32];
    if (r.latency_s < 0) {
      std::snprintf(latency, sizeof latency, "-");
    } else {
      std::snprintf(latency, sizeof latency, "%.1fs", r.latency_s);
    }
    std::printf("  %-22s %-9s %-12s %-12s %-10s\n", r.tool,
                r.detects ? "yes" : "no",
                r.names_operation ? "yes" : "no",
                r.finds_root_cause ? "yes" : "no", latency);
  }
}

struct ScenarioResult {
  std::vector<Row> rows;
};

// Runs one faulty scenario through all four tools.
ScenarioResult run_scenario(bench::BenchEnv& env,
                            const std::vector<stack::Launch>& launches,
                            SimTime fault_time, bool performance_fault,
                            std::uint64_t seed) {
  ScenarioResult result;

  stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                   &env.catalog.infra(), seed);
  const auto records = executor.execute(launches);
  const auto& logs = executor.logs();

  // --- GRETEL ---------------------------------------------------------
  {
    auto options = env.analyzer_options(
        std::max(150.0, static_cast<double>(records.size()) /
                            (records.back().ts - records.front().ts)
                                .to_seconds()));
    options.run_root_cause = true;
    core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                            &env.deployment, options);
    monitor::ResourceMonitor mon(&env.deployment, SimDuration::seconds(1),
                                 seed);
    mon.sample_range(SimTime::epoch(),
                     records.back().ts + SimDuration::seconds(3),
                     analyzer.metrics());
    for (const auto& r : records) analyzer.on_wire(r);
    analyzer.finish();

    Row row{"GRETEL"};
    for (const auto& d : analyzer.diagnoses()) {
      if (performance_fault &&
          d.fault.kind != core::FaultKind::Performance) {
        continue;
      }
      row.detects = true;
      row.names_operation = row.names_operation ||
                            !d.fault.matched_fingerprints.empty();
      row.finds_root_cause =
          row.finds_root_cause || !d.root_cause.causes.empty();
      const double latency = (d.fault.detected_at - fault_time).to_seconds();
      if (row.latency_s < 0 || latency < row.latency_s)
        row.latency_s = std::max(0.0, latency);
    }
    result.rows.push_back(row);
  }

  // --- HANSEL ---------------------------------------------------------
  {
    net::CaptureTap tap(&env.catalog.apis(),
                        env.deployment.service_by_port());
    hansel::Hansel baseline;
    for (const auto& r : records) {
      if (auto ev = tap.decode(r)) baseline.on_message(r, *ev);
    }
    baseline.flush();

    Row row{"HANSEL"};
    for (const auto& chain : baseline.chains()) {
      row.detects = true;  // reports a chain of messages
      const double latency =
          (chain.reported_at - fault_time).to_seconds();
      if (row.latency_s < 0 || latency < row.latency_s)
        row.latency_s = std::max(0.0, latency);
    }
    // HANSEL names no operation and has no root-cause engine (§9.2), and
    // is never invoked for performance faults (no error message).
    result.rows.push_back(row);
  }

  // --- log analysis at ERROR and WARNING -------------------------------
  for (auto level : {stack::LogLevel::Error, stack::LogLevel::Warning}) {
    logs::LogAnalyzer analyzer;
    analyzer.ingest(logs);
    const auto findings = analyzer.grep(level);
    Row row{level == stack::LogLevel::Error ? "logs (ERROR)"
                                            : "logs (WARNING)"};
    if (!findings.empty()) {
      row.detects = true;
      row.latency_s = std::max(
          0.0, (findings.front().available_at - fault_time).to_seconds());
    }
    result.rows.push_back(row);
  }
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "Section 3.1: GRETEL vs HANSEL vs log analysis");
  auto env = bench::BenchEnv::make();
  const auto& vm_create =
      env.catalog.operation(env.catalog.canonical().vm_create);

  auto step_of = [&](const stack::OperationTemplate& op, wire::ApiId api) {
    for (std::size_t i = 0; i < op.steps.size(); ++i) {
      if (op.steps[i].api == api) return i;
    }
    return std::size_t{0};
  };

  // §3.1.1 — VM create fails ("No valid host"), agent crashed upstream.
  {
    env.deployment.crash_software(wire::ServiceKind::NovaCompute,
                                  "neutron-plugin-linuxbridge-agent",
                                  SimTime::epoch(),
                                  SimTime::epoch() + SimDuration::minutes(5));
    std::vector<stack::Launch> launches;
    for (int i = 0; i < 20; ++i) {
      launches.push_back({&vm_create,
                          SimTime::epoch() + SimDuration::seconds(i),
                          std::nullopt});
    }
    const auto fault_time = SimTime::epoch() + SimDuration::seconds(10);
    launches.push_back(
        {&vm_create, fault_time,
         stack::no_valid_host_fault(step_of(
             vm_create, env.catalog.well_known().neutron_post_ports))});
    const auto r = run_scenario(env, launches, fault_time, false, 311);
    print_rows("3.1.1 VM create fails (No valid host; WARNING-only logs):",
               r.rows);
    env.deployment = stack::Deployment::standard(3);  // reset injections
  }

  // §7.2.1 — image upload 413 with *silent* Glance logs.
  {
    env.deployment.inject_disk_exhaustion(
        wire::ServiceKind::Glance, SimTime::epoch(),
        SimTime::epoch() + SimDuration::minutes(5), 199'600.0);
    const auto& upload =
        env.catalog.operation(env.catalog.canonical().image_upload);
    const auto fault_time = SimTime::epoch() + SimDuration::seconds(5);
    std::vector<stack::Launch> launches{
        {&upload, SimTime::epoch(), std::nullopt},
        {&upload, fault_time,
         stack::entity_too_large_fault(step_of(
             upload, env.catalog.well_known().glance_put_image_file))}};
    const auto r = run_scenario(env, launches, fault_time, false, 721);
    print_rows("7.2.1 image upload 413 (empty Glance logs):", r.rows);
    env.deployment = stack::Deployment::standard(3);
  }

  // §3.1.2 — API bottleneck: operations succeed, latency degrades.
  {
    const auto surge_start = SimTime::epoch() + SimDuration::seconds(25);
    env.deployment.inject_cpu_surge(wire::ServiceKind::Neutron, surge_start,
                                    SimTime::epoch() + SimDuration::minutes(5),
                                    85.0);
    std::vector<stack::Launch> launches;
    for (int i = 0; i < 150; ++i) {
      launches.push_back({&vm_create,
                          SimTime::epoch() + SimDuration::millis(400 * i),
                          std::nullopt});
    }
    const auto r = run_scenario(env, launches, surge_start, true, 312);
    print_rows("3.1.2 API bottleneck (no errors at all):", r.rows);
    env.deployment = stack::Deployment::standard(3);
  }

  std::printf(
      "\npaper: GRETEL reports in <2s naming the operation and cause; "
      "HANSEL reports 30s-bucket chains without operations or causes and "
      "misses performance faults entirely; ERROR-level logs are empty and "
      "WARNING-level logs repeat the dashboard error after collation\n");
  return 0;
}
