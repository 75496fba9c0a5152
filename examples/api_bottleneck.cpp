// Scenario §3.1.2 / §7.2.2 — API bottlenecks under parallel VM creation.
//
// Creating many VM instances in parallel gets slower and slower; every
// operation eventually *succeeds*, so there are no error logs at any level
// and HANSEL (error-triggered) is never invoked.  GRETEL's latency tracker
// raises level-shift alarms on the Neutron APIs, its fingerprints identify
// the operation as VM creation, and root-cause analysis confirms a CPU
// surge on the Neutron server.
#include "examples/scenario_common.h"

int main() {
  using namespace gretel;
  auto scenario = examples::Scenario::prepare();

  const auto& vm_create =
      scenario.catalog.operation(scenario.catalog.canonical().vm_create);

  // A steady stream of VM creates; the Neutron server's CPU surges halfway
  // through (e.g. a runaway agent or noisy neighbour).
  std::vector<stack::Launch> launches;
  for (int i = 0; i < 150; ++i) {
    launches.push_back({&vm_create,
                        util::SimTime::epoch() +
                            util::SimDuration::millis(400 * i),
                        std::nullopt});
  }
  scenario.deployment.inject_cpu_surge(
      wire::ServiceKind::Neutron,
      util::SimTime::epoch() + util::SimDuration::seconds(25),
      util::SimTime::epoch() + util::SimDuration::minutes(5), 85.0);
  std::printf("[inject] CPU surge on the Neutron server from t=25s\n");

  const auto analyzer = scenario.run(launches);
  scenario.print_diagnoses(*analyzer);

  std::printf("\nNote: every operation succeeded — log analysis at TRACE "
              "level and error-triggered tools see nothing here.\n");
  return 0;
}
