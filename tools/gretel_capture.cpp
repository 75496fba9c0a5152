// gretel_capture — records a workload's control-plane traffic to a capture
// file (the tcpdump/tcpreplay half of the §7.4.1 pipeline).
//
//   gretel_capture --out traffic.cap [--tests 100] [--faults 1]
//                  [--window-s 60] [--seed N] [--fraction 1.0]
//                  [--correlation-ids]
//
// Fault injection options (environmental, for root-cause demos):
//   --cpu-surge <service>       e.g. --cpu-surge neutron
//   --crash <service>:<daemon>  e.g. --crash nova-compute:nova-compute
#include <cstdio>

#include "net/capture_file.h"
#include "stack/workflow.h"
#include "tempest/workload.h"
#include "tools/cli_common.h"

namespace {

std::optional<gretel::wire::ServiceKind> parse_service(std::string_view s) {
  using gretel::wire::ServiceKind;
  for (int k = 0; k < static_cast<int>(ServiceKind::Unknown); ++k) {
    if (to_string(static_cast<ServiceKind>(k)) == s)
      return static_cast<ServiceKind>(k);
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gretel;
  const tools::Args args(argc, argv);
  const auto out = args.get("--out");
  if (!out || args.has_flag("--help")) {
    std::fprintf(stderr,
                 "usage: gretel_capture --out <file> [--tests N] "
                 "[--faults K] [--window-s S] [--seed N] [--fraction F] "
                 "[--correlation-ids] [--cpu-surge svc] "
                 "[--crash svc:daemon]\n");
    return out ? 0 : 2;
  }

  const auto seed = args.get_uint("--seed", 0xC0DE2016ull);
  const auto catalog =
      tempest::TempestCatalog::build(seed, args.get_double("--fraction", 1.0));
  auto deployment = stack::Deployment::standard(3);

  tempest::WorkloadSpec spec;
  spec.concurrent_tests = static_cast<int>(args.get_int("--tests", 100));
  spec.faults = static_cast<int>(args.get_int("--faults", 1));
  spec.window =
      util::SimDuration::seconds(args.get_int("--window-s", 60));
  spec.seed = seed ^ 0x5EEDull;
  const auto workload = make_parallel_workload(catalog, spec);

  const auto horizon = util::SimTime::epoch() + spec.window * 4;
  if (const auto surge = args.get("--cpu-surge")) {
    if (const auto svc = parse_service(*surge)) {
      deployment.inject_cpu_surge(*svc, util::SimTime::epoch(), horizon,
                                  85.0);
      std::printf("injected CPU surge on %s\n", surge->c_str());
    } else {
      std::fprintf(stderr, "unknown service: %s\n", surge->c_str());
      return 2;
    }
  }
  if (const auto crash = args.get("--crash")) {
    const auto colon = crash->find(':');
    const auto svc = parse_service(crash->substr(0, colon));
    if (colon == std::string::npos || !svc) {
      std::fprintf(stderr, "expected --crash <service>:<daemon>\n");
      return 2;
    }
    deployment.crash_software(*svc, crash->substr(colon + 1),
                              util::SimTime::epoch(), horizon);
    std::printf("crashed %s\n", crash->c_str());
  }

  stack::WorkflowExecutor::Options exec_options;
  exec_options.emit_correlation_ids = args.has_flag("--correlation-ids");
  stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                   &catalog.infra(), seed ^ 0xCAFEull,
                                   exec_options);
  const auto records = executor.execute(workload.launches);

  if (!net::write_capture_file(*out, records)) {
    std::fprintf(stderr, "error: could not write %s\n", out->c_str());
    return 1;
  }
  std::printf("captured %zu records (%d tests, %d faults) -> %s\n",
              records.size(), spec.concurrent_tests, spec.faults,
              out->c_str());
  return 0;
}
