// Reproduces Fig. 6 / §7.2.2: anomalous latency of Neutron's
// GET /v2.0/ports.json during 400 concurrent operations, caused by a CPU
// surge on the Neutron server.  Prints the latency time series (original
// level vs the detector's adapted level), the level-shift alarms, and the
// root-cause verdict (high CPU on the Neutron node).
#include <cstdio>

#include "bench/harness.h"
#include "detect/latency_tracker.h"
#include "monitor/metrics.h"
#include "net/capture.h"
#include "stack/workflow.h"

int main() {
  using namespace gretel;
  using util::SimDuration;
  using util::SimTime;

  bench::print_header("Fig. 6: Neutron GET /ports.json latency anomaly");
  auto env = bench::BenchEnv::make();

  // 400 concurrent operations over 120 s; CPU surge on the Neutron server
  // starting at t = 60 s.
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 400;
  spec.faults = 0;
  spec.window = SimDuration::seconds(120);
  spec.seed = 600;
  auto workload = make_parallel_workload(env.catalog, spec);

  env.deployment.inject_cpu_surge(wire::ServiceKind::Neutron,
                                  SimTime::epoch() + SimDuration::seconds(60),
                                  SimTime::epoch() + SimDuration::minutes(5),
                                  85.0);

  stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                   &env.catalog.infra(), 61);
  const auto records = executor.execute(workload.launches);

  auto options = env.analyzer_options(1000.0);
  options.run_root_cause = true;
  core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                          &env.deployment, options);
  monitor::ResourceMonitor mon(&env.deployment, SimDuration::seconds(1), 6);
  mon.sample_range(SimTime::epoch(),
                   records.back().ts + SimDuration::seconds(3),
                   analyzer.metrics());
  for (const auto& r : records) analyzer.on_wire(r);
  analyzer.finish();

  // Latency series of the target API, bucketed per 5 s for the plot.  The
  // analyzer keeps only each API's level-shift window, so the plot pairs
  // the same records with its own tap and tracker (same orphan timeout).
  const auto api = env.catalog.well_known().neutron_get_ports;
  net::CaptureTap tap(&env.catalog.apis(), env.deployment.service_by_port());
  detect::LatencyTracker tracker;
  tracker.set_orphan_timeout_seconds(options.config.orphan_timeout_seconds);
  util::TimeSeries series;
  for (const auto& r : records) {
    const auto event = tap.decode(r);
    if (!event) continue;
    if (const auto sample = tracker.observe(*event);
        sample && sample->api == api) {
      series.add(sample->when.to_seconds(), sample->latency_ms);
    }
  }
  if (series.empty()) {
    std::printf("no samples for GET /v2.0/ports.json\n");
    return 1;
  }
  std::printf("%-10s %-16s %-8s\n", "t (s)", "latency (ms)", "samples");
  double bucket_start = 0;
  double sum = 0;
  int count = 0;
  for (const auto& p : series.points()) {
    if (p.t_seconds >= bucket_start + 5.0) {
      if (count) {
        std::printf("%-10.0f %-16.2f %-8d\n", bucket_start, sum / count,
                    count);
      }
      bucket_start += 5.0 * static_cast<int>(
                                (p.t_seconds - bucket_start) / 5.0);
      sum = 0;
      count = 0;
    }
    sum += p.value;
    ++count;
  }
  if (count) std::printf("%-10.0f %-16.2f %-8d\n", bucket_start, sum / count,
                         count);

  // Level-shift alarms (the red marks in Fig. 6) and root causes.
  int perf_reports = 0;
  bool cpu_on_neutron = false;
  const auto neutron_node =
      env.deployment.primary_node_for(wire::ServiceKind::Neutron);
  for (const auto& d : analyzer.diagnoses()) {
    if (d.fault.kind != core::FaultKind::Performance) continue;
    const auto& desc = env.catalog.apis().get(d.fault.offending_api);
    if (desc.service != wire::ServiceKind::Neutron) continue;
    ++perf_reports;
    if (d.fault.latency) {
      std::printf("LS alarm: %s at t=%.1fs level %.1f -> %.1f ms\n",
                  desc.display_name().c_str(),
                  d.fault.latency->alarm.t_seconds,
                  d.fault.latency->alarm.baseline,
                  d.fault.latency->alarm.baseline +
                      d.fault.latency->alarm.magnitude);
    }
    for (const auto& c : d.root_cause.causes) {
      if (c.node == neutron_node &&
          c.detail.find("cpu") != std::string::npos) {
        cpu_on_neutron = true;
        std::printf("root cause: node %u (neutron-ctl): %s\n",
                    c.node.value(), c.detail.c_str());
      }
    }
  }
  std::printf("\nNeutron performance reports: %d; CPU surge attributed to "
              "the Neutron server: %s\n",
              perf_reports, cpu_on_neutron ? "yes" : "no");
  std::printf("paper: latency of v2.0/ports.json (and quotas/networks) "
              "shifts up; RCA attributes it to Neutron-server CPU\n");
  return 0;
}
