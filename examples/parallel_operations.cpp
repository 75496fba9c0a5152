// Scenario §3.1.3 — multiple parallel operations, one failure.
//
// A production cloud runs many similar operations at once.  A client
// launches dozens of VM creates; exactly one fails.  Parallel operations
// are HANSEL's worst case (it stitches every message and buffers 30 s);
// GRETEL invokes operation detection only on the fault and pinpoints the
// offending operation among the parallel identical ones.
#include "examples/scenario_common.h"
#include "hansel/hansel.h"
#include "net/capture.h"
#include "stack/faults.h"

int main() {
  using namespace gretel;
  auto scenario = examples::Scenario::prepare();

  const auto& vm_create =
      scenario.catalog.operation(scenario.catalog.canonical().vm_create);

  std::vector<stack::Launch> launches;
  for (int i = 0; i < 80; ++i) {
    launches.push_back({&vm_create,
                        util::SimTime::epoch() +
                            util::SimDuration::millis(600 * i),
                        std::nullopt});
  }
  const std::size_t faulty_index = 40;
  launches[faulty_index].fault = stack::no_valid_host_fault(
      scenario.step_of(vm_create,
                       scenario.catalog.well_known().neutron_post_ports));
  std::printf("[inject] 80 parallel VM creates; #%zu fails at "
              "POST ports.json\n",
              faulty_index);

  const auto analyzer = scenario.run(launches);
  scenario.print_diagnoses(*analyzer);
  std::printf("\noperation detection ran %llu time(s) — unaffected by the "
              "%d successful parallel operations\n",
              static_cast<unsigned long long>(
                  analyzer->detector_stats().operational_reports),
              79);

  // Contrast with the HANSEL baseline on the same traffic.
  stack::WorkflowExecutor executor(&scenario.deployment,
                                   &scenario.catalog.apis(),
                                   &scenario.catalog.infra(), 99);
  const auto records = executor.execute(launches);
  net::CaptureTap tap(&scenario.catalog.apis(),
                      scenario.deployment.service_by_port());
  hansel::Hansel baseline;
  for (const auto& r : records) {
    if (auto ev = tap.decode(r)) baseline.on_message(r, *ev);
  }
  baseline.flush();

  std::printf("\nHANSEL on the same capture: %zu chain(s)\n",
              baseline.chains().size());
  for (const auto& chain : baseline.chains()) {
    std::printf("  chain of %zu messages touching %zu distinct operations, "
                "reported %.0f s after the error (bucket close)\n",
                chain.events.size(), chain.distinct_instances(),
                (chain.reported_at - chain.events.front().ts).to_seconds());
  }
  std::printf("\nGRETEL names the failed high-level operation; HANSEL "
              "reports a low-level message chain entangled with the "
              "successful operations.\n");
  return 0;
}
