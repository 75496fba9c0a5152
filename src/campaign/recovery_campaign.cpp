#include "campaign/recovery_campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>

#include "campaign/generator.h"
#include "gretel/analyzer.h"
#include "gretel/db_io.h"
#include "gretel/json_export.h"
#include "persist/checkpoint.h"
#include "persist/crash_hook.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "util/rng.h"
#include "util/seed.h"

namespace gretel::campaign {

using util::SeedStream;
using util::SimDuration;
using util::SimTime;
using util::derive_seed;

const char* to_string(KillPoint p) {
  switch (p) {
    case KillPoint::BetweenTicks: return "between-ticks";
    case KillPoint::MidJournalAppend: return "mid-journal-append";
    case KillPoint::MidCheckpointWrite: return "mid-checkpoint-write";
    case KillPoint::PreCheckpointRename: return "pre-checkpoint-rename";
    case KillPoint::PostCheckpointRename: return "post-checkpoint-rename";
    case KillPoint::DuringDbSwap: return "during-db-swap";
  }
  return "unknown";
}

namespace {

// Named persist fail point for a kill point; empty for the manual kills.
std::string_view fail_point(KillPoint p) {
  switch (p) {
    case KillPoint::MidJournalAppend: return "journal.append";
    case KillPoint::MidCheckpointWrite: return "checkpoint.mid_write";
    case KillPoint::PreCheckpointRename: return "checkpoint.pre_rename";
    case KillPoint::PostCheckpointRename: return "checkpoint.post_rename";
    default: return {};
  }
}

// RAII: a hook left armed after a round would crash the next one.
struct HookGuard {
  ~HookGuard() { persist::clear_crash_hook(); }
};

}  // namespace

RecoveryCampaign::RecoveryCampaign(const tempest::TempestCatalog* catalog,
                                   const core::TrainingReport* training,
                                   RecoveryCampaignConfig cfg)
    : catalog_(catalog), training_(training), cfg_(std::move(cfg)) {}

RecoveryRoundResult RecoveryCampaign::run_round(std::uint64_t round,
                                                KillPoint point) {
  RecoveryRoundResult res;
  res.round = round;
  res.kill_point = point;
  const std::uint64_t seed = derive_seed(cfg_.seed, SeedStream::Scenario,
                                         round);

  // Seeded fault workload, sampled by the campaign generator so the
  // rounds exercise real report-producing scenarios; substrate chaos is
  // zeroed — this campaign crashes the analyzer, not the telemetry.
  CampaignPlan plan;
  plan.seed = seed;
  plan.concurrent_tests = cfg_.concurrent_tests;
  plan.window_s = cfg_.window_s;
  ScenarioSpec spec = ScenarioGenerator(catalog_, plan).generate_one(round);
  spec.wire = net::ChaosConfig{};
  spec.monitor = monitor::MonitorChaosConfig{};
  spec.concurrent_tests = cfg_.concurrent_tests;
  spec.window_s = cfg_.window_s;

  const auto& catalog = *catalog_;
  auto deployment = stack::Deployment::standard(3);

  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = spec.concurrent_tests;
  wspec.faults = 0;
  wspec.window = SimDuration::seconds(spec.window_s);
  wspec.seed = derive_seed(seed, SeedStream::Workload);
  auto workload = tempest::make_parallel_workload(catalog, wspec);
  for (const auto& f : spec.faults) {
    workload.launches.push_back(
        {&catalog.operation(f.op_index),
         SimTime::epoch() + SimDuration::seconds(f.start_offset_s),
         stack::fault_for_status(f.fail_step, f.status)});
  }
  stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                   &catalog.infra(),
                                   derive_seed(seed, SeedStream::Executor));
  const auto records = executor.execute(workload.launches);
  if (records.empty()) {
    res.note = "empty capture";
    return res;
  }

  const std::string dir = cfg_.dir + "/round-" + std::to_string(round);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const double span =
      (records.back().ts - records.front().ts).to_seconds();
  core::Analyzer::Options opt;
  opt.config.fp_max = training_->fp_max;
  opt.config.p_rate =
      std::max(span > 0 ? records.size() / span : 150.0, 150.0);
  opt.run_root_cause = false;
  const core::Analyzer::Options opt_restore = opt;  // opt is moved below

  // The sink records exactly what was acknowledged pre-crash, as the same
  // JSON the journal writes, indexed by delivery order == journal seq.
  std::vector<std::string> acked;
  auto analyzer = std::make_unique<stream::StreamAnalyzer>(
      &training_->db, &catalog.apis(), &deployment, std::move(opt),
      [&](const stream::StreamReport& r) {
        acked.push_back(core::to_json(r.diagnosis, catalog.apis(),
                                      training_->db));
      },
      cfg_.stream);
  if (!analyzer->enable_durability(dir)) {
    res.note = "enable_durability failed";
    return res;
  }

  // Arm the kill.  Named fail points fire on their Nth hit (seeded, so
  // the crash lands after some durable state exists); the manual kills
  // stop feeding at a seeded record index — exactly what SIGKILL between
  // ticks leaves behind.
  util::Rng rng(derive_seed(seed, SeedStream::Generator));
  const std::string_view fp = fail_point(point);
  std::size_t hits_left = 1 + rng.next_below(2);
  HookGuard hook_guard;
  if (!fp.empty()) {
    persist::set_crash_hook([&](std::string_view p) {
      return p == fp && --hits_left == 0;
    });
  }
  const std::size_t kill_at =
      records.size() / 3 + rng.next_below(std::max<std::size_t>(
                               1, records.size() / 3));

  try {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (fp.empty() && i == kill_at) {
        res.crashed = true;
        break;
      }
      analyzer->advance_to(records[i].ts);
      analyzer->offer(records[i]);
    }
    if (!res.crashed) analyzer->finish();
  } catch (const persist::SimulatedCrash&) {
    res.crashed = true;
  }
  persist::clear_crash_hook();
  const SimTime crash_watermark = analyzer->watermark();
  const auto tick_ns = static_cast<std::int64_t>(cfg_.stream.tick_ms * 1e6);
  const SimTime stream_start =
      SimTime((records.front().ts.nanos() / tick_ns) * tick_ns);
  res.reports_pre_crash = acked.size();

  // Process death: the object goes away, only the files survive.
  analyzer.reset();

  if (point == KillPoint::DuringDbSwap) {
    // A fingerprint-DB hot swap died mid-write, leaving a torn GRTFDB02.
    // The CRC sections must reject it — the loader falls back to the DB
    // it already has instead of trusting half a file.
    const std::string swap_path = dir + "/fingerprints.swap.grtfdb";
    const std::string encoded =
        core::encode_fingerprint_db(training_->db, catalog.apis());
    if (std::FILE* f = std::fopen(swap_path.c_str(), "wb")) {
      std::fwrite(encoded.data(), 1, encoded.size() / 2, f);
      std::fclose(f);
    }
    if (core::load_fingerprint_db(swap_path, catalog.apis())) {
      res.note = "torn fingerprint DB accepted by loader";
      return res;
    }
  }

  // Restore from disk alone.
  stream::RecoveryInfo ri;
  const auto t0 = std::chrono::steady_clock::now();
  auto restored = stream::StreamAnalyzer::restore(
      &training_->db, &catalog.apis(), &deployment, opt_restore, dir,
      [&](const stream::StreamReport& r) {
        acked.push_back(core::to_json(r.diagnosis, catalog.apis(),
                                      training_->db));
      },
      &ri, cfg_.stream);
  res.recovery_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (!restored) {
    res.note = "restore returned null";
    return res;
  }
  res.recovered = ri.recovered;
  res.corrupt_checkpoints_skipped = ri.corrupt_checkpoints_skipped;
  res.journal_records_truncated = ri.journal_records_truncated;
  res.reports_journaled = restored->journal_next_seq();
  res.reports_replayed = ri.replayed.size();
  if (ri.recovered) {
    const auto sz = std::filesystem::file_size(
        persist::checkpoint_path(dir, ri.checkpoint_seq), ec);
    if (!ec) res.state_bytes = static_cast<std::size_t>(sz);
  }

  // Invariant leg 1: zero journaled reports lost.  Every acknowledged
  // report is on disk (the journal fsyncs before the sink runs), and the
  // replayed tail is byte-identical to what the sink saw.
  res.reports_durable = res.reports_journaled == res.reports_pre_crash;
  for (const auto& rec : ri.replayed) {
    if (rec.seq >= acked.size() || rec.payload != acked[rec.seq]) {
      res.reports_durable = false;
      break;
    }
  }
  if (!res.reports_durable)
    res.note = "journaled " + std::to_string(res.reports_journaled) +
               " != acknowledged " + std::to_string(res.reports_pre_crash) +
               " (or payload mismatch)";

  // Invariant leg 2: at most one checkpoint interval (plus tick
  // quantization) of learned baseline regresses.
  const SimTime floor = ri.recovered ? restored->watermark() : stream_start;
  res.baseline_regressed_s = (crash_watermark - floor).to_seconds();
  res.baseline_bounded =
      res.baseline_regressed_s <= cfg_.stream.checkpoint_interval_s +
                                      2.0 * cfg_.stream.tick_ms / 1e3 + 1e-9;
  if (!res.baseline_bounded && res.note.empty())
    res.note = "baseline regressed " +
               std::to_string(res.baseline_regressed_s) + "s";

  // Invariant leg 3a: the ledger reconciles straight out of restore().
  const auto& c0 = restored->counters();
  bool ledger = c0.offered == c0.ingested + c0.shed && restored->queued() == 0;

  // Resume the stream past the recovery floor and finish: the analyzer
  // must keep working after a crash, and the ledger must still reconcile.
  try {
    for (const auto& r : records) {
      if (r.ts.nanos() <= restored->watermark().nanos()) continue;
      restored->advance_to(r.ts);
      restored->offer(r);
    }
    restored->finish();
  } catch (const std::exception& e) {
    ledger = false;
    res.note = std::string("resumed run threw: ") + e.what();
  }
  const auto& c1 = restored->counters();
  res.ledger_ok =
      ledger && c1.offered == c1.ingested + c1.shed && restored->queued() == 0;
  res.reports_final = c1.reports;
  if (!res.ledger_ok && res.note.empty())
    res.note = "flow ledger failed to reconcile after restart";

  res.invariant_ok =
      res.reports_durable && res.baseline_bounded && res.ledger_ok;
  return res;
}

RecoveryCampaignReport RecoveryCampaign::run() {
  RecoveryCampaignReport report;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  for (std::uint64_t i = 0; i < cfg_.rounds; ++i) {
    const auto point = static_cast<KillPoint>(i % kKillPoints);
    RecoveryRoundResult res;
    try {
      res = run_round(i, point);
    } catch (const std::exception& e) {
      res.round = i;
      res.kill_point = point;
      res.note = std::string("round threw: ") + e.what();
    }
    report.crashes += res.crashed ? 1 : 0;
    report.recovered += res.recovered ? 1 : 0;
    report.invariant_failures += res.invariant_ok ? 0 : 1;
    report.rounds.push_back(std::move(res));
  }
  return report;
}

}  // namespace gretel::campaign
