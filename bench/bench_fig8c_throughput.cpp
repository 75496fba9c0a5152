// Reproduces Fig. 8c / §7.4.1: GRETEL's steady-state throughput versus
// fault frequency, with the HANSEL baseline for comparison.
//
// A 400-concurrent-operation capture is replayed (tcpreplay analog) through
// the full analyzer pipeline — codec decode, dual buffer, error scan,
// latency pairing, and fault-triggered operation detection — with the
// number of injected faults chosen so that the stream carries one fault per
// {100, 500, 1000, 1500, 2000} messages.  The paper reports ~7.5 Mbps at
// 1/100 rising to ~77 Mbps (~50K events/s) at 1/2000; HANSEL peaks at
// ~1.6K messages/s because it stitches on every message.
#include <cstdio>

#include "bench/harness.h"
#include "hansel/hansel.h"
#include "net/replay.h"
#include "stack/workflow.h"

namespace {

// Builds a capture whose fault density is ~1 per `freq` messages.
std::vector<gretel::net::WireRecord> build_capture(
    gretel::bench::BenchEnv& env, int freq, std::uint64_t seed,
    std::size_t* fault_count) {
  using namespace gretel;
  // A 400-test workload produces ~70K records; pick fault count to match
  // the requested frequency, then adjust by measuring.
  tempest::WorkloadSpec probe;
  probe.concurrent_tests = 400;
  probe.faults = 0;
  probe.window = util::SimDuration::seconds(60);
  probe.seed = seed;

  // Estimate record count with a fault-free dry run sizing pass.
  stack::WorkflowExecutor sizing(&env.deployment, &env.catalog.apis(),
                                 &env.catalog.infra(), seed);
  const auto base = sizing.execute(make_parallel_workload(env.catalog, probe)
                                       .launches);
  const int faults =
      std::max(1, static_cast<int>(base.size() / static_cast<std::size_t>(
                                                     freq)));

  tempest::WorkloadSpec spec = probe;
  spec.faults = faults;
  *fault_count = static_cast<std::size_t>(faults);
  stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                   &env.catalog.infra(), seed + 1);
  return executor.execute(make_parallel_workload(env.catalog, spec).launches);
}

}  // namespace

int main() {
  using namespace gretel;

  bench::print_header("Fig. 8c: throughput vs fault frequency");
  auto env = bench::BenchEnv::make();

  std::printf("%-14s %-10s %-14s %-12s %-14s %-14s\n", "fault freq",
              "faults", "events", "reports", "events/s", "Mbps");
  for (int freq : {100, 500, 1000, 1500, 2000}) {
    std::size_t fault_count = 0;
    const auto records = build_capture(env, freq,
                                       static_cast<std::uint64_t>(freq),
                                       &fault_count);

    auto options = env.analyzer_options(
        static_cast<double>(records.size()) /
        (records.back().ts - records.front().ts).to_seconds());
    core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                            &env.deployment, options);

    const auto report = net::ReplayEngine::replay(
        records, [&](const net::WireRecord& r) { analyzer.on_wire(r); });
    analyzer.finish();

    std::printf("1/%-12d %-10zu %-14llu %-12llu %-14.0f %-14.2f\n", freq,
                fault_count,
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(
                    analyzer.detector_stats().operational_reports),
                report.events_per_second(), report.mbps());
  }

  // HANSEL baseline on the 1/2000 capture: per-message stitching.
  {
    std::size_t fault_count = 0;
    const auto records = build_capture(env, 2000, 42, &fault_count);
    net::CaptureTap tap(&env.catalog.apis(),
                        env.deployment.service_by_port());
    hansel::Hansel baseline;
    const auto report = net::ReplayEngine::replay(
        records, [&](const net::WireRecord& r) {
          // HANSEL decodes the message *and* analyzes the payload for
          // identifiers on every message (§9.2).
          if (auto ev = tap.decode(r)) baseline.on_message(r, *ev);
        });
    baseline.flush();
    std::printf("%-14s %-10zu %-14llu %-12zu %-14.0f %-14.2f\n",
                "HANSEL 1/2000", fault_count,
                static_cast<unsigned long long>(report.records),
                baseline.chains().size(), report.events_per_second(),
                report.mbps());
  }

  std::printf("\npaper: ~7.5 Mbps at 1/100 -> near line rate (~77 Mbps, "
              "~50K events/s) at 1/1000+; HANSEL peaks at ~1.6K msgs/s and "
              "reports with ~30 s latency\n");
  return 0;
}
