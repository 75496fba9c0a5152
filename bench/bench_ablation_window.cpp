// Ablation: sensitivity of operation detection to the context-buffer
// parameters (c1, c2) — the design choices §5.3.1 fixes empirically
// (c1 = 0.1, c2 = 0.04).
//
// One fixed workload (200 tests, 8 faults) is analyzed under each variant;
// we report precision, identification rate, analysis wall time, and the
// final context buffer size.
#include <cstdio>

#include "bench/harness.h"

namespace {

using namespace gretel;

struct Variant {
  const char* name;
  double c1;
  double c2;
};

}  // namespace

int main() {
  bench::print_header("Ablation: context buffer parameters");
  auto env = bench::BenchEnv::make();

  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 200;
  spec.faults = 8;
  spec.window = util::SimDuration::seconds(60);
  spec.seed = 9900;
  const auto workload = make_parallel_workload(env.catalog, spec);

  const Variant variants[] = {
      {"paper (c1=0.1, c2=0.04)", 0.1, 0.04},
      {"small start (c1=0.01)", 0.01, 0.04},
      {"large start (c1=0.5)", 0.5, 0.04},
      {"fine growth (c2=0.01)", 0.1, 0.01},
      {"coarse growth (c2=0.2)", 0.1, 0.2},
  };

  std::printf("%-26s %-10s %-12s %-10s %-12s %-12s\n", "variant", "theta",
              "identified", "matched", "beta final", "analyze (s)");
  for (const auto& v : variants) {
    // run_precision reads c1/c2 through the analyzer options; temporarily
    // patch the environment's config by wrapping run_precision inline.
    stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                     &env.catalog.infra(), 0x99ull);
    const auto records = executor.execute(workload.launches);
    const double span =
        (records.back().ts - records.front().ts).to_seconds();

    auto options = env.analyzer_options(
        static_cast<double>(records.size()) / span);
    options.config.c1 = v.c1;
    options.config.c2 = v.c2;
    core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                            &env.deployment, options);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& r : records) analyzer.on_wire(r);
    analyzer.finish();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    double theta = 0;
    double matched = 0;
    double beta = 0;
    double identified = 0;
    std::size_t n = 0;
    for (const auto& d : analyzer.diagnoses()) {
      if (d.fault.kind != core::FaultKind::Operational) continue;
      theta += d.fault.theta;
      matched += static_cast<double>(d.fault.matched_fingerprints.size());
      beta += static_cast<double>(d.fault.beta_final);
      // Identification vs ground truth via the error events.
      for (const auto& ev : d.fault.error_events) {
        if (!ev.truth_template.valid()) continue;
        for (auto idx : d.fault.matched_fingerprints) {
          if (env.training.db.get(idx).op == ev.truth_template) {
            identified += 1.0;
            goto next;
          }
        }
      }
    next:
      ++n;
    }
    if (n) {
      theta /= static_cast<double>(n);
      matched /= static_cast<double>(n);
      beta /= static_cast<double>(n);
      identified /= static_cast<double>(n);
    }
    std::printf("%-26s %-10.4f %-12.2f %-10.2f %-12.1f %-12.3f\n", v.name,
                theta, identified, matched, beta, secs);
  }
  std::printf("\nthe paper's (c1, c2) balance precision against analysis "
              "cost\n");
  return 0;
}
