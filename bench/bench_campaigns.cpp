// Fault-campaign sweep: orchestrated multi-fault scenarios through the
// full capture→detect→diagnose pipeline, with failure-mode clustering and
// a coverage/novelty report (BENCH_campaigns.json).
//
// The campaign methodology follows the fault-injection-analytics loop of
// arXiv:2010.00331: enumerate a fault space (fault class × injection site
// × intensity × timing × workload mix), execute every scenario under a
// derived seed, collapse the resulting reports to canonical fingerprints,
// and read coverage per fault class — localized / missed / misattributed /
// crashed — off the clustered outcomes.
//
//   --scenarios N      sweep size (default 500)
//   --seed S           campaign seed (default 0xCA59A16E)
//   --fraction F       Tempest catalog fraction (default 0.12)
//   --budget N         per-scenario event budget (default 200000)
//   --recheck K        re-run the first K scenarios and require identical
//                      fingerprints/outcomes (default 10; 0 disables)
//   --out PATH         JSON report path (default BENCH_campaigns.json)
//   --tripwire         fail (exit 1) on: localized fraction below
//                      --min-localized, any crashed scenario, or a
//                      determinism recheck mismatch
//   --min-localized F  tripwire floor on the localized fraction (0.55)
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "campaign/cluster.h"
#include "campaign/orchestrator.h"
#include "tools/cli_common.h"

int main(int argc, char** argv) {
  using namespace gretel;
  tools::Args args(argc, argv);

  const auto scenarios = args.get_uint("--scenarios", 500);
  const auto seed = args.get_uint("--seed", 0xCA59A16E);
  const double fraction = args.get_double("--fraction", 0.12);
  const auto budget = args.get_uint("--budget", 200000);
  const auto recheck = args.get_uint("--recheck", 10);
  const std::string out_path =
      args.get("--out").value_or("BENCH_campaigns.json");
  const bool tripwire = args.has_flag("--tripwire");
  const double min_localized = args.get_double("--min-localized", 0.55);

  bench::print_header("fault campaign: multi-fault sweep + clustering");
  auto env = bench::BenchEnv::make(fraction, 0xC0DE2016ull);

  campaign::CampaignPlan plan;
  plan.seed = seed;
  plan.scenarios = scenarios;
  plan.budget_events = budget;
  campaign::ScenarioGenerator generator(&env.catalog, plan);
  campaign::CampaignOrchestrator orchestrator(&env.catalog, &env.training,
                                              plan);

  const auto specs = generator.generate();
  const auto start = std::chrono::steady_clock::now();
  const auto results = orchestrator.run_all(specs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto summary = campaign::summarize(results);

  // Determinism recheck: scenario generation and orchestration are pure
  // functions of the campaign seed, so a re-run must reproduce the exact
  // fingerprint and outcome.
  std::size_t recheck_failures = 0;
  const auto rechecked = std::min(recheck, results.size());
  for (std::size_t i = 0; i < rechecked; ++i) {
    const auto again = orchestrator.run(generator.generate_one(i));
    if (again.fingerprint != results[i].fingerprint ||
        again.outcome != results[i].outcome) {
      ++recheck_failures;
      std::printf("RECHECK MISMATCH scenario %zu: %016llx/%s vs %016llx/%s\n",
                  i,
                  static_cast<unsigned long long>(results[i].fingerprint),
                  to_string(results[i].outcome),
                  static_cast<unsigned long long>(again.fingerprint),
                  to_string(again.outcome));
    }
  }

  std::uint64_t total_events = 0;
  for (const auto& r : results) total_events += r.events;

  std::printf("%-22s %-6s %-10s %-8s %-14s %-8s %-9s\n", "class", "runs",
              "localized", "missed", "misattributed", "crashed", "clusters");
  for (std::size_t c = 0; c < campaign::kFaultClasses; ++c) {
    const auto& cc = summary.per_class[c];
    std::printf("%-22s %-6zu %-10zu %-8zu %-14zu %-8zu %-9zu\n",
                to_string(static_cast<campaign::FaultClass>(c)),
                cc.scenarios, cc.outcomes[0], cc.outcomes[1], cc.outcomes[2],
                cc.outcomes[3], cc.distinct_fingerprints);
  }
  std::printf("\n%zu scenarios, %.1f%% localized, %zu failure modes "
              "(%zu singleton), %llu events, %.1fs\n",
              summary.scenarios, 100.0 * summary.localized_fraction(),
              summary.distinct_fingerprints, summary.singleton_fingerprints,
              static_cast<unsigned long long>(total_events), wall);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  bench::BenchRunMeta meta;
  meta.benchmark = "campaigns";
  meta.events_measured = static_cast<std::size_t>(total_events);
  std::fprintf(f, "{\n");
  bench::write_bench_meta(f, meta);
  std::fprintf(f,
               ",\n  \"campaign\": {\"seed\": %llu, \"scenarios\": %zu, "
               "\"fraction\": %.4f, \"budget_events\": %zu, "
               "\"recheck\": %zu, \"recheck_failures\": %zu, "
               "\"wall_seconds\": %.3f},\n",
               static_cast<unsigned long long>(seed), scenarios, fraction,
               budget, rechecked, recheck_failures, wall);
  std::string body;
  campaign::append_summary_json(body, summary);
  std::fprintf(f, "  \"summary\": %s\n}\n", body.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (tripwire) {
    bool failed = false;
    if (recheck_failures) {
      std::printf("TRIPWIRE: %zu determinism recheck failures\n",
                  recheck_failures);
      failed = true;
    }
    const auto crashed =
        summary.outcomes[static_cast<std::size_t>(
            campaign::Outcome::Crashed)];
    if (crashed) {
      std::printf("TRIPWIRE: %zu crashed scenarios (exception or audit "
                  "reconciliation failure)\n", crashed);
      failed = true;
    }
    if (summary.localized_fraction() < min_localized) {
      std::printf("TRIPWIRE: localized fraction %.3f below floor %.3f\n",
                  summary.localized_fraction(), min_localized);
      failed = true;
    }
    if (failed) return 1;
    std::printf("tripwire: ok (localized %.3f >= %.3f, 0 crashes, "
                "recheck clean)\n",
                summary.localized_fraction(), min_localized);
  }
  return 0;
}
