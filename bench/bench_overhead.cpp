// Reproduces §7.4.2: analyzer system overhead while 100 Tempest tests run
// in parallel (the paper reports ~4.26% peak CPU and ~123 MB for the
// analyzer; Bro agents <12.38% CPU and ~1 GB).
//
// We report the analyzer's per-event processing cost (CPU seconds consumed
// per simulated second of workload — the CPU-share analog), and its memory
// growth measured via VmRSS around the run.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/harness.h"
#include "stack/workflow.h"

namespace {

// Resident set size in MB from /proc/self/status.
double rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

int main() {
  using namespace gretel;

  bench::print_header("Section 7.4.2: analyzer overhead (100 parallel tests)");
  auto env = bench::BenchEnv::make();

  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 100;
  spec.faults = 0;
  spec.window = util::SimDuration::minutes(6);  // the paper's ~6-minute run
  spec.seed = 742;
  const auto workload = make_parallel_workload(env.catalog, spec);

  stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                   &env.catalog.infra(), 74);
  const auto records = executor.execute(workload.launches);
  const double workload_span =
      (records.back().ts - records.front().ts).to_seconds();

  const double rss_before = rss_mb();
  auto options = env.analyzer_options(
      static_cast<double>(records.size()) / workload_span);
  core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                          &env.deployment, options);

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t bytes = 0;
  for (const auto& r : records) {
    analyzer.on_wire(r);
    bytes += r.bytes.size();
  }
  analyzer.finish();
  const double cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rss_after = rss_mb();

  std::printf("workload: %zu records over %.0f simulated seconds\n",
              records.size(), workload_span);
  std::printf("analyzer CPU time: %.3f s -> %.3f%% of one core while the "
              "workload ran (paper: ~4.26%% peak)\n",
              cpu_seconds, 100.0 * cpu_seconds / workload_span);
  std::printf("analyzer memory growth: %.1f MB (RSS %.1f -> %.1f MB; "
              "paper: ~123 MB)\n",
              rss_after - rss_before, rss_before, rss_after);
  std::printf("events processed: %llu (%.0f events/s, %.2f Mbps)\n",
              static_cast<unsigned long long>(
                  analyzer.detector_stats().events),
              analyzer.detector_stats().events / cpu_seconds,
              static_cast<double>(bytes) * 8.0 / 1e6 / cpu_seconds);
  return 0;
}
