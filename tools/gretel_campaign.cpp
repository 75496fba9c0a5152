// gretel_campaign — run a fault campaign, or re-derive one scenario of it.
//
//   gretel_campaign [--scenarios N] [--seed S] [--fraction F] [--budget N]
//                   [--json PATH]
//       Runs the sweep and prints the per-class coverage table plus the
//       largest failure-mode clusters; --json writes the full summary.
//
//   gretel_campaign --scenario ID [--seed S] [--fraction F]
//       Re-derives scenario ID from the campaign seed (generation is
//       per-scenario deterministic), prints its fault plan, runs it, and
//       dumps the canonical reports behind its fingerprint — the workflow
//       for inspecting one member of a cluster from a BENCH_campaigns run.
//
//   gretel_campaign --recovery N [--recovery-dir D] [--tick-ms T]
//                   [--checkpoint-interval S]
//       Runs N kill-point recovery rounds (crash the durable streaming
//       analyzer at seeded points, restore from disk, assert the
//       durability invariant); exits 1 if any round fails the invariant.
//
// SIGINT/SIGTERM stops a sweep gracefully: the current scenario finishes,
// the partial coverage table prints, and the tool exits 0.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/harness.h"
#include "campaign/cluster.h"
#include "campaign/orchestrator.h"
#include "campaign/recovery_campaign.h"
#include "gretel/analyzer.h"
#include "tools/cli_common.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

void print_scenario(const gretel::campaign::ScenarioSpec& spec,
                    const gretel::tempest::TempestCatalog& catalog) {
  using namespace gretel;
  std::printf("scenario %llu  class=%s  seed=%016llx\n",
              static_cast<unsigned long long>(spec.id),
              to_string(spec.fault_class),
              static_cast<unsigned long long>(spec.seed));
  std::printf("  workload: %d concurrent tests over %.0fs\n",
              spec.concurrent_tests, spec.window_s);
  for (const auto& f : spec.faults) {
    std::printf("  fault: op \"%s\" step %zu status %u at +%.1fs\n",
                catalog.operation(f.op_index).name.c_str(), f.fail_step,
                f.status, f.start_offset_s);
  }
  if (spec.has_env()) {
    const char* kind = "?";
    switch (spec.env.kind) {
      case campaign::EnvFault::Kind::CpuSurge: kind = "cpu-surge"; break;
      case campaign::EnvFault::Kind::DiskExhaustion:
        kind = "disk-exhaustion";
        break;
      case campaign::EnvFault::Kind::DaemonCrash: kind = "daemon-crash"; break;
      case campaign::EnvFault::Kind::LinkLatency: kind = "link-latency"; break;
      case campaign::EnvFault::Kind::None: break;
    }
    const std::string service(wire::to_string(spec.env.service));
    std::printf("  env: %s on %s%s%s intensity %.1f\n", kind,
                service.c_str(), spec.env.daemon.empty() ? "" : " daemon ",
                spec.env.daemon.c_str(), spec.env.intensity);
  }
  if (spec.wire.enabled())
    std::printf("  wire chaos: drop %.3f truncate %.3f corrupt %.3f\n",
                spec.wire.drop_rate, spec.wire.truncate_rate,
                spec.wire.corrupt_rate);
  if (spec.monitor.enabled())
    std::printf("  monitor chaos: drop %.3f timeout %.3f\n",
                spec.monitor.probe_drop_rate,
                spec.monitor.probe_timeout_rate);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gretel;
  tools::Args args(argc, argv);

  const auto seed = args.get_uint("--seed", 0xCA59A16Eull);
  const double fraction = args.get_double("--fraction", 0.12);

  // Every flag is parsed (and the recovery rounds' stream knobs
  // validated) before the environment is built.
  campaign::CampaignPlan plan;
  plan.seed = seed;
  plan.scenarios = args.get_uint("--scenarios", 90);
  plan.budget_events = args.get_uint("--budget", plan.budget_events);
  campaign::RecoveryCampaignConfig rcfg;
  rcfg.seed = seed;
  rcfg.stream.tick_ms = args.get_double("--tick-ms", rcfg.stream.tick_ms);
  rcfg.stream.checkpoint_interval_s = args.get_double(
      "--checkpoint-interval", rcfg.stream.checkpoint_interval_s);
  rcfg.rounds = args.get_uint("--recovery", 0);
  rcfg.dir = args.get("--recovery-dir").value_or("recovery-campaign");
  const auto scenario_id = args.get_uint("--scenario", 0);
  if (!tools::check_config("gretel_campaign", rcfg.stream)) return 2;

  auto env = bench::BenchEnv::make(fraction, 0xC0DE2016ull);

  if (args.get("--recovery")) {
    campaign::RecoveryCampaign rc(&env.catalog, &env.training, rcfg);
    const auto report = rc.run();
    std::printf("%-6s %-24s %-8s %-10s %-7s %-9s %-9s %s\n", "round",
                "kill-point", "crashed", "recovered", "acked", "journaled",
                "regress", "invariant");
    for (const auto& r : report.rounds) {
      std::printf("%-6llu %-24s %-8s %-10s %-7llu %-9llu %-9.2f %s%s%s\n",
                  static_cast<unsigned long long>(r.round),
                  to_string(r.kill_point), r.crashed ? "yes" : "no",
                  r.recovered ? "yes" : "no",
                  static_cast<unsigned long long>(r.reports_pre_crash),
                  static_cast<unsigned long long>(r.reports_journaled),
                  r.baseline_regressed_s, r.invariant_ok ? "ok" : "FAIL",
                  r.note.empty() ? "" : " — ", r.note.c_str());
    }
    std::printf("\n%zu rounds: %zu crashes, %zu recovered, %zu invariant "
                "failures\n",
                report.rounds.size(), report.crashes, report.recovered,
                report.invariant_failures);
    std::error_code ec;
    std::filesystem::remove_all(rcfg.dir, ec);
    return report.all_ok() ? 0 : 1;
  }

  campaign::ScenarioGenerator generator(&env.catalog, plan);
  campaign::CampaignOrchestrator orchestrator(&env.catalog, &env.training,
                                              plan);

  if (args.get("--scenario")) {
    const auto spec = generator.generate_one(scenario_id);
    print_scenario(spec, env.catalog);
    const auto result = orchestrator.run(spec);
    std::printf("\noutcome: %s  fingerprint: %s\n", to_string(result.outcome),
                campaign::fingerprint_hex(result.fingerprint).c_str());
    std::printf("faults: %zu/%zu detected, %zu identified",
                result.faults_detected, result.faults_total,
                result.faults_identified);
    if (result.env_expected)
      std::printf("; env cause %s",
                  result.env_localized ? "localized" : "NOT localized");
    std::printf("\ndiagnoses: %zu over %llu events%s%s\n", result.diagnoses,
                static_cast<unsigned long long>(result.events),
                result.budget_truncated ? " (budget-truncated)" : "",
                result.note.empty() ? "" : (" — " + result.note).c_str());
    return result.outcome == campaign::Outcome::Crashed ? 1 : 0;
  }

  const auto specs = generator.generate();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::vector<campaign::ScenarioResult> results;
  results.reserve(specs.size());
  for (const auto& spec : specs) {
    if (g_signal) break;
    results.push_back(orchestrator.run(spec));
  }
  const bool interrupted = g_signal != 0;
  if (interrupted)
    std::printf("signal %d: stopping after %zu/%zu scenarios\n\n",
                static_cast<int>(g_signal), results.size(), specs.size());
  const auto summary = campaign::summarize(results);

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
              "(%zu singleton)\n",
              summary.scenarios, 100.0 * summary.localized_fraction(),
              summary.distinct_fingerprints, summary.singleton_fingerprints);
  std::printf("largest clusters:\n");
  const auto top = std::min<std::size_t>(8, summary.clusters.size());
  for (std::size_t i = 0; i < top; ++i) {
    const auto& cl = summary.clusters[i];
    std::printf("  %s  x%zu  e.g. scenario %llu (%s, %s)\n",
                campaign::fingerprint_hex(cl.fingerprint).c_str(), cl.size,
                static_cast<unsigned long long>(cl.example_id),
                to_string(cl.example_class), to_string(cl.example_outcome));
  }

  if (const auto out = args.get("--json")) {
    std::FILE* f = std::fopen(out->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", out->c_str());
      return 1;
    }
    std::string body;
    campaign::append_summary_json(body, summary);
    std::fprintf(f, "{\n  \"summary\": %s\n}\n", body.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out->c_str());
  }
  return 0;
}
