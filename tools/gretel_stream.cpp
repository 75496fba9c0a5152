// gretel_stream — run the continuous streaming detector against a synthetic
// faulty workload and watch reports arrive with latency stamps.
//
//   gretel_stream [--fraction F] [--tests N] [--faults N] [--window S]
//                 [--seed S] [--tick-ms T] [--ring N] [--shed newest|oldest]
//                 [--quiet]
//                 [--persist DIR] [--resume] [--checkpoint-interval S]
//
// Builds the training environment (fraction of the Tempest catalog),
// executes a parallel workload with injected faults, and replays the
// capture through the StreamAnalyzer in arrival order: advance_to() drives
// the tick grid from record timestamps, offer() admits (or sheds) each
// record, and every emitted report is printed as it happens.  The exit
// summary shows the flow ledger (offered = ingested + shed), the emission-
// delay distribution, and the itemized bounded-state footprint.
//
// --persist arms the durability layer: every report is journaled (fsync'd
// before it prints) and checkpoints are written on the
// --checkpoint-interval cadence.  --resume restores from the newest valid
// checkpoint in DIR first.  SIGINT/SIGTERM is a graceful stop: the stream
// halts at the next record, a final checkpoint is written, the flow
// ledger is dumped, and the tool exits 0 — a later --resume continues
// where the signal landed.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "stack/workflow.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "tools/cli_common.h"
#include "util/seed.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gretel;
  tools::Args args(argc, argv);

  const double fraction = args.get_double("--fraction", 0.12);
  const auto seed = args.get_uint("--seed", 0x57AEA11ull);
  const bool quiet = args.has_flag("--quiet");

  auto env = bench::BenchEnv::make(fraction, 0xC0DE2016ull);

  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = static_cast<int>(args.get_int("--tests", 24));
  wspec.faults = static_cast<int>(args.get_int("--faults", 4));
  wspec.window =
      util::SimDuration::seconds(args.get_int("--window", 45));
  wspec.seed = util::derive_seed(seed, util::SeedStream::Workload);
  const auto workload = tempest::make_parallel_workload(env.catalog, wspec);

  stack::WorkflowExecutor executor(
      &env.deployment, &env.catalog.apis(), &env.catalog.infra(),
      util::derive_seed(seed, util::SeedStream::Executor));
  const auto records = executor.execute(workload.launches);
  if (records.empty()) {
    std::fprintf(stderr, "empty capture\n");
    return 1;
  }
  const double span_s =
      (records.back().ts - records.front().ts).to_seconds();
  const double p_rate =
      span_s > 0 ? static_cast<double>(records.size()) / span_s : 150.0;

  auto opt = env.analyzer_options(std::max(p_rate, 150.0));
  stream::StreamOptions stream_opts;
  stream_opts.tick_ms = args.get_double("--tick-ms", stream_opts.tick_ms);
  stream_opts.source_ring = args.get_uint("--ring", stream_opts.source_ring);
  if (args.get("--shed").value_or("oldest") == "newest")
    stream_opts.shed_policy = stream::StreamShedPolicy::DropNewest;
  stream_opts.checkpoint_interval_s = args.get_double(
      "--checkpoint-interval", stream_opts.checkpoint_interval_s);
  if (!tools::check_config("gretel_stream", opt.config, stream_opts)) return 2;

  const auto persist_dir = args.get("--persist");
  const bool resume = args.has_flag("--resume");

  std::vector<double> delays;
  auto sink = [&](const stream::StreamReport& r) {
    delays.push_back(r.report_delay_ms);
    if (quiet) return;
    const auto& f = r.diagnosis.fault;
    const auto& api = env.catalog.apis().get(f.offending_api);
    const std::string service(wire::to_string(api.service));
    std::printf(
        "[%9.3fs] tick %4llu  %-11s  %s %s  theta=%.2f  matched=%zu  "
        "delay=%.1fms%s\n",
        r.emitted_at.to_seconds(), static_cast<unsigned long long>(r.tick),
        f.kind == core::FaultKind::Operational ? "operational"
                                               : "performance",
        service.c_str(), api.path.c_str(), f.theta,
        f.matched_fingerprints.size(), r.report_delay_ms,
        f.degraded_confidence ? "  [degraded]" : "");
  };

  std::unique_ptr<stream::StreamAnalyzer> owned;
  if (persist_dir && resume) {
    stream::RecoveryInfo ri;
    owned = stream::StreamAnalyzer::restore(
        &env.training.db, &env.catalog.apis(), &env.deployment, opt,
        *persist_dir, sink, &ri, stream_opts);
    if (!owned) {
      std::fprintf(stderr, "cannot open persistence dir %s\n",
                   persist_dir->c_str());
      return 1;
    }
    std::printf(
        "resume: %s (checkpoint %llu @ tick %llu, %zu corrupt skipped, "
        "%zu torn journal records truncated, %zu reports replayed%s)\n",
        ri.recovered ? "recovered" : "cold start",
        static_cast<unsigned long long>(ri.checkpoint_seq),
        static_cast<unsigned long long>(ri.checkpoint_tick),
        ri.corrupt_checkpoints_skipped, ri.journal_records_truncated,
        ri.replayed.size(), ri.db_mismatch ? ", DB MISMATCH" : "");
  } else {
    owned = std::make_unique<stream::StreamAnalyzer>(
        &env.training.db, &env.catalog.apis(), &env.deployment, opt, sink,
        stream_opts);
    if (persist_dir && !owned->enable_durability(*persist_dir)) {
      std::fprintf(stderr, "cannot open persistence dir %s\n",
                   persist_dir->c_str());
      return 1;
    }
  }
  stream::StreamAnalyzer& streamer = *owned;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  for (const auto& r : records) {
    if (g_signal) break;
    if (r.ts.nanos() <= streamer.watermark().nanos() && resume) continue;
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  if (g_signal) {
    // Graceful stop: the journal already holds every emitted report
    // (fsync-before-acknowledge); flush a final checkpoint so --resume
    // continues from this exact watermark, then fall through to the
    // ledger dump below and exit 0.
    const bool ckpt = streamer.checkpoint_now();
    std::printf("\nsignal %d: stopping at watermark %.3fs%s\n",
                static_cast<int>(g_signal),
                streamer.watermark().to_seconds(),
                streamer.durable()
                    ? (ckpt ? ", final checkpoint written"
                            : ", FINAL CHECKPOINT FAILED")
                    : "");
  } else {
    streamer.finish();
  }

  const auto& c = streamer.counters();
  std::sort(delays.begin(), delays.end());
  std::printf(
      "\n%zu records over %.1fs (%.0f rec/s), %llu ticks @ %.0fms\n",
      records.size(), span_s, p_rate,
      static_cast<unsigned long long>(c.ticks), stream_opts.tick_ms);
  std::printf(
      "flow: offered=%llu ingested=%llu shed=%llu (episodes=%llu)\n",
      static_cast<unsigned long long>(c.offered),
      static_cast<unsigned long long>(c.ingested),
      static_cast<unsigned long long>(c.shed),
      static_cast<unsigned long long>(c.shed_episodes));
  std::printf(
      "reports: %llu emitted (%llu retained)  delay p50=%.1fms p95=%.1fms "
      "p99=%.1fms\n",
      static_cast<unsigned long long>(c.reports),
      static_cast<unsigned long long>(streamer.recent_reports().size()),
      percentile(delays, 0.50), percentile(delays, 0.95),
      percentile(delays, 0.99));
  auto fp = streamer.footprint();
  std::printf(
      "state: ring=%zu rec (%zu B)  window=%zu slots  pending=%zu  "
      "reports=%zu  ~%zu B (peak ~%zu B)\n",
      fp.source_ring_records, fp.source_ring_bytes, fp.window_capacity,
      fp.pending_requests, fp.reports_retained,
      fp.approx_bytes(), streamer.peak_state_bytes());
  const auto health = streamer.health();
  std::printf(
      "health: losses=%llu orphans=%llu evicted=%llu\n",
      static_cast<unsigned long long>(health.losses_recorded),
      static_cast<unsigned long long>(health.orphans_reaped),
      static_cast<unsigned long long>(health.inflight_evicted));
  return 0;
}
