// Crash-tolerance costs and guarantees of the durable streaming mode
// (BENCH_recovery.json).
//
// Three legs:
//   1. Checkpoint write cost vs state size: one durable stream run with
//      the cadence disabled and checkpoint_now() forced at fixed points,
//      each write timed and its file size recorded — the cost curve as
//      learned state grows.
//   2. Kill-point recovery campaign (campaign/recovery_campaign.h): the
//      analyzer is deterministically killed at every kill point in
//      rotation, restored from disk, and the durability invariant is
//      asserted each round; restore() wall time and restored-state size
//      give the recovery-time-vs-state-size distribution.
//   3. Reports-lost histogram: per round, acknowledged-before-crash minus
//      durable-on-disk — the journal's fsync-before-acknowledge contract
//      says every bucket except 0 is a bug.
//
//   --rounds N               kill rounds (default 12)
//   --tests N                background workload per round (default 8)
//   --window S               workload window seconds (default 45)
//   --fraction F             Tempest catalog fraction (default 0.12)
//   --seed S                 root seed (default 0x5EC0)
//   --tick-ms T              detection tick cadence (default 200)
//   --checkpoint-interval S  checkpoint cadence seconds (default 2)
//   --dir PATH               scratch dir (default bench-recovery-scratch)
//   --out PATH               JSON path (default BENCH_recovery.json)
//   --tripwire               fail (exit 1) on: any invariant-failing round,
//                            any lost report, recovery p99 above
//                            --max-recovery-ms, or checkpoint write max
//                            above --max-checkpoint-ms
//   --max-recovery-ms X      restore() wall ceiling (default 2000)
//   --max-checkpoint-ms X    checkpoint write ceiling (default 500)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "campaign/recovery_campaign.h"
#include "persist/checkpoint.h"
#include "stack/workflow.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "tools/cli_common.h"
#include "util/seed.h"

namespace {

using namespace gretel;

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct CheckpointSample {
  std::size_t state_bytes = 0;
  double write_ms = 0.0;
};

// Leg 1: forced checkpoints at fixed stream positions, each timed.
std::vector<CheckpointSample> measure_checkpoint_cost(
    bench::BenchEnv& env, std::uint64_t seed, int tests, long window_s,
    double tick_ms, const std::string& dir) {
  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = tests;
  wspec.faults = 4;
  wspec.window = util::SimDuration::seconds(window_s);
  wspec.seed = util::derive_seed(seed, util::SeedStream::Workload);
  const auto workload = tempest::make_parallel_workload(env.catalog, wspec);
  stack::WorkflowExecutor executor(
      &env.deployment, &env.catalog.apis(), &env.catalog.infra(),
      util::derive_seed(seed, util::SeedStream::Executor));
  const auto records = executor.execute(workload.launches);

  const double span_s =
      records.empty()
          ? 0.0
          : (records.back().ts - records.front().ts).to_seconds();
  auto opt = env.analyzer_options(std::max(
      span_s > 0 ? static_cast<double>(records.size()) / span_s : 150.0,
      150.0));
  stream::StreamOptions stream_opts;
  stream_opts.tick_ms = tick_ms;
  // Cadence off (one checkpoint per eon): only the forced writes below
  // run, so each sample times exactly one checkpoint_now().
  stream_opts.checkpoint_interval_s = 1e9;

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  stream::StreamAnalyzer streamer(&env.training.db, &env.catalog.apis(),
                                  &env.deployment, opt, {}, stream_opts);
  std::vector<CheckpointSample> samples;
  if (!streamer.enable_durability(dir)) return samples;

  const std::size_t stride = std::max<std::size_t>(1, records.size() / 12);
  std::uint64_t ckp_seq = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    streamer.advance_to(records[i].ts);
    streamer.offer(records[i]);
    if ((i + 1) % stride == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      if (streamer.checkpoint_now()) {
        CheckpointSample s;
        s.write_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        const auto sz = std::filesystem::file_size(
            persist::checkpoint_path(dir, ckp_seq), ec);
        s.state_bytes = ec ? 0 : static_cast<std::size_t>(sz);
        samples.push_back(s);
        ++ckp_seq;
      }
    }
  }
  streamer.finish();
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv);

  const auto rounds = args.get_uint("--rounds", 12);
  const int tests = static_cast<int>(args.get_int("--tests", 8));
  const long window_s = args.get_int("--window", 45);
  const double fraction = args.get_double("--fraction", 0.12);
  const auto seed = args.get_uint("--seed", 0x5EC0);
  const double tick_ms = args.get_double("--tick-ms", 200.0);
  const double ckp_interval =
      args.get_double("--checkpoint-interval", 2.0);
  const std::string dir =
      args.get("--dir").value_or("bench-recovery-scratch");
  const std::string out_path =
      args.get("--out").value_or("BENCH_recovery.json");
  const bool tripwire = args.has_flag("--tripwire");
  const double max_recovery_ms = args.get_double("--max-recovery-ms", 2000.0);
  const double max_checkpoint_ms =
      args.get_double("--max-checkpoint-ms", 500.0);

  bench::print_header("recovery: checkpoint cost, restore time, zero loss");
  auto env = bench::BenchEnv::make(fraction, 0xC0DE2016ull);

  // Leg 1: checkpoint write cost.
  const auto ckp_samples = measure_checkpoint_cost(
      env, util::derive_seed(seed, 0xC4B), tests, window_s, tick_ms,
      dir + "/checkpoint-cost");
  std::vector<double> write_ms;
  std::size_t state_min = 0, state_max = 0;
  for (const auto& s : ckp_samples) {
    write_ms.push_back(s.write_ms);
    state_min = state_min ? std::min(state_min, s.state_bytes)
                          : s.state_bytes;
    state_max = std::max(state_max, s.state_bytes);
  }
  std::sort(write_ms.begin(), write_ms.end());
  const double w_p50 = percentile(write_ms, 0.50);
  const double w_p95 = percentile(write_ms, 0.95);
  const double w_max = write_ms.empty() ? 0.0 : write_ms.back();

  // Legs 2+3: the kill-point campaign.
  campaign::RecoveryCampaignConfig ccfg;
  ccfg.seed = seed;
  ccfg.rounds = rounds;
  ccfg.concurrent_tests = tests;
  ccfg.window_s = static_cast<double>(window_s);
  ccfg.stream.tick_ms = tick_ms;
  ccfg.stream.checkpoint_interval_s = ckp_interval;
  ccfg.dir = dir + "/kill-points";
  campaign::RecoveryCampaign rc(&env.catalog, &env.training, ccfg);
  const auto report = rc.run();

  std::vector<double> recovery_ms;
  std::size_t restored_state_max = 0;
  std::map<std::uint64_t, std::size_t> lost_histogram;
  std::uint64_t reports_lost_total = 0;
  for (const auto& r : report.rounds) {
    recovery_ms.push_back(r.recovery_ms);
    restored_state_max = std::max(restored_state_max, r.state_bytes);
    const std::uint64_t lost =
        r.reports_pre_crash > r.reports_journaled
            ? r.reports_pre_crash - r.reports_journaled
            : 0;
    ++lost_histogram[lost];
    reports_lost_total += lost;
  }
  std::sort(recovery_ms.begin(), recovery_ms.end());
  const double r_p50 = percentile(recovery_ms, 0.50);
  const double r_p99 = percentile(recovery_ms, 0.99);
  const double r_max = recovery_ms.empty() ? 0.0 : recovery_ms.back();

  std::printf(
      "checkpoint: %zu writes, ms p50=%.2f p95=%.2f max=%.2f, "
      "state %zu..%zu bytes\n"
      "recovery: %zu rounds, %zu crashes, %zu recovered, %zu invariant "
      "failures\n"
      "restore ms: p50=%.2f p99=%.2f max=%.2f, restored state max %zu "
      "bytes\n"
      "reports lost: %llu total\n",
      ckp_samples.size(), w_p50, w_p95, w_max, state_min, state_max,
      report.rounds.size(), report.crashes, report.recovered,
      report.invariant_failures, r_p50, r_p99, r_max, restored_state_max,
      static_cast<unsigned long long>(reports_lost_total));
  for (const auto& r : report.rounds) {
    if (!r.invariant_ok)
      std::printf("  round %llu [%s]: %s\n",
                  static_cast<unsigned long long>(r.round),
                  campaign::to_string(r.kill_point), r.note.c_str());
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  bench::BenchRunMeta meta;
  meta.benchmark = "recovery";
  meta.events_measured = report.rounds.size();
  std::fprintf(f, "{\n");
  bench::write_bench_meta(f, meta);
  std::fprintf(
      f,
      ",\n  \"checkpoint\": {\"writes\": %zu, \"write_ms_p50\": %.3f, "
      "\"write_ms_p95\": %.3f, \"write_ms_max\": %.3f, "
      "\"state_bytes_min\": %zu, \"state_bytes_max\": %zu},\n",
      ckp_samples.size(), w_p50, w_p95, w_max, state_min, state_max);
  std::fprintf(f, "  \"checkpoint_samples\": [");
  for (std::size_t i = 0; i < ckp_samples.size(); ++i)
    std::fprintf(f, "%s{\"state_bytes\": %zu, \"write_ms\": %.3f}",
                 i ? ", " : "", ckp_samples[i].state_bytes,
                 ckp_samples[i].write_ms);
  std::fprintf(f, "],\n");
  std::fprintf(
      f,
      "  \"recovery\": {\"rounds\": %zu, \"crashes\": %zu, "
      "\"recovered\": %zu, \"invariant_failures\": %zu, "
      "\"recovery_ms_p50\": %.3f, \"recovery_ms_p99\": %.3f, "
      "\"recovery_ms_max\": %.3f, \"restored_state_bytes_max\": %zu},\n",
      report.rounds.size(), report.crashes, report.recovered,
      report.invariant_failures, r_p50, r_p99, r_max, restored_state_max);
  std::fprintf(f, "  \"reports_lost_histogram\": {");
  {
    bool first = true;
    for (const auto& [lost, n] : lost_histogram) {
      std::fprintf(f, "%s\"%llu\": %zu", first ? "" : ", ",
                   static_cast<unsigned long long>(lost), n);
      first = false;
    }
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"rounds\": [\n");
  for (std::size_t i = 0; i < report.rounds.size(); ++i) {
    const auto& r = report.rounds[i];
    std::fprintf(
        f,
        "    {\"round\": %llu, \"kill_point\": \"%s\", \"crashed\": %s, "
        "\"recovered\": %s, \"invariant_ok\": %s, "
        "\"reports_pre_crash\": %llu, \"reports_journaled\": %llu, "
        "\"reports_replayed\": %llu, \"baseline_regressed_s\": %.3f, "
        "\"recovery_ms\": %.3f, \"state_bytes\": %zu}%s\n",
        static_cast<unsigned long long>(r.round),
        campaign::to_string(r.kill_point), r.crashed ? "true" : "false",
        r.recovered ? "true" : "false", r.invariant_ok ? "true" : "false",
        static_cast<unsigned long long>(r.reports_pre_crash),
        static_cast<unsigned long long>(r.reports_journaled),
        static_cast<unsigned long long>(r.reports_replayed),
        r.baseline_regressed_s, r.recovery_ms, r.state_bytes,
        i + 1 < report.rounds.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (tripwire) {
    bool failed = false;
    if (report.invariant_failures > 0) {
      std::printf("TRIPWIRE: %zu rounds failed the recovery invariant\n",
                  report.invariant_failures);
      failed = true;
    }
    if (reports_lost_total > 0) {
      std::printf("TRIPWIRE: %llu journaled reports lost\n",
                  static_cast<unsigned long long>(reports_lost_total));
      failed = true;
    }
    if (r_p99 > max_recovery_ms) {
      std::printf("TRIPWIRE: recovery p99 %.1fms above ceiling %.1fms\n",
                  r_p99, max_recovery_ms);
      failed = true;
    }
    if (w_max > max_checkpoint_ms) {
      std::printf("TRIPWIRE: checkpoint write max %.1fms above ceiling "
                  "%.1fms\n",
                  w_max, max_checkpoint_ms);
      failed = true;
    }
    if (failed) return 1;
    std::printf(
        "tripwire: ok (0 invariant failures, 0 lost, restore p99 "
        "%.1f <= %.1fms, checkpoint max %.1f <= %.1fms)\n",
        r_p99, max_recovery_ms, w_max, max_checkpoint_ms);
  }
  return 0;
}
