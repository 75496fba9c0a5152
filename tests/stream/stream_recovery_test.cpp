// Durability contract tests for the streaming analyzer (suite names
// Checkpoint/Journal/Recovery are in the TSan/ASan CI filters):
//   - a crash-free run with checkpointing enabled emits byte-identical
//     reports to one with it disabled (the PR-level acceptance gate);
//   - every emitted report is journaled before the sink sees it;
//   - restore() resumes counters, watermark, and report numbering from a
//     clean shutdown;
//   - a checkpoint taken between ticks restores the live loss count;
//   - the journal tail is replayed when the crash landed after the last
//     checkpoint (including with no checkpoint at all);
//   - corrupt checkpoints fall back to the next-newest valid one;
//   - a directory whose only checkpoint is in the older GRTCKP01 layout
//     cold-starts, journal numbering stays exact, and the next checkpoint
//     is the one the next restore loads;
//   - a fingerprint-DB identity mismatch cold-starts the learned state
//     instead of grafting baselines onto the wrong APIs;
//   - an analyzer blob that will not decode cleanly cold-starts from a
//     fresh analyzer, not a partly loaded one;
//   - the flow ledger reconciles after a restore-and-resume run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gretel/json_export.h"
#include "gretel/training.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"

namespace gretel::stream {
namespace {

namespace fs = std::filesystem;
using util::SimDuration;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training = core::learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

struct TempDir {
  std::string path;
  TempDir() {
    path = (fs::temp_directory_path() /
            ("grt-recovery-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter()++)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::vector<net::WireRecord> record_workload(int tests, int faults,
                                             std::uint64_t seed) {
  auto& e = env();
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = tests;
  spec.faults = faults;
  spec.window = SimDuration::seconds(30);
  spec.seed = seed;
  const auto w = make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), seed ^ 0xE8ec);
  return executor.execute(w.launches);
}

core::Analyzer::Options base_options() {
  auto& e = env();
  core::Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  opt.run_root_cause = false;
  return opt;
}

StreamOptions base_stream() {
  StreamOptions stream;
  stream.tick_ms = 200.0;
  stream.checkpoint_interval_s = 2.0;
  stream.journal_segment_records = 8;
  return stream;
}

// Re-writes the newest checkpoint under `dir`, altered by `tamper`, as a
// newer file with valid CRCs.
template <class Tamper>
bool rewrite_newest_checkpoint(const std::string& dir, Tamper tamper) {
  auto ckp = persist::load_newest_checkpoint(dir, nullptr);
  if (!ckp) return false;
  tamper(*ckp);
  ckp->meta.checkpoint_seq += 1;
  return persist::write_checkpoint(dir, *ckp, 10);
}

// restore() over `dir` with the options every test here runs with.
std::unique_ptr<StreamAnalyzer> restore(const std::string& dir,
                                        RecoveryInfo* ri) {
  auto& e = env();
  return StreamAnalyzer::restore(&e.training.db, &e.catalog.apis(),
                                 &e.deployment, base_options(), dir, {}, ri,
                                 base_stream());
}

std::string report_json(const core::Diagnosis& d) {
  auto& e = env();
  return core::to_json(d, e.catalog.apis(), e.training.db);
}

// Feeds every record through a fresh analyzer; durability armed iff `dir`
// is non-empty.  Returns the emitted reports' JSON payloads in order.
std::vector<std::string> run_stream(const std::vector<net::WireRecord>& recs,
                                    const std::string& dir,
                                    bool call_finish = true) {
  auto& e = env();
  std::vector<std::string> emitted;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(),
                          [&](const StreamReport& r) {
                            emitted.push_back(report_json(r.diagnosis));
                          },
                          base_stream());
  if (!dir.empty()) {
    EXPECT_TRUE(streamer.enable_durability(dir));
  }
  for (const auto& r : recs) {
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  if (call_finish) streamer.finish();
  return emitted;
}

// The acceptance gate: durability adds only I/O, never changes reports.
TEST(Recovery, CheckpointingDoesNotChangeEmittedReports) {
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  const auto plain = run_stream(recs, "");
  const auto durable = run_stream(recs, dir.path);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, durable);
}

TEST(Journal, EveryEmittedReportIsOnDiskBeforeTheSinkSeesIt) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  std::vector<std::string> emitted;
  std::unique_ptr<StreamAnalyzer> sa;
  sa = std::make_unique<StreamAnalyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, base_options(),
      [&](const StreamReport& r) {
        // Fsync-before-acknowledge: at the instant the sink runs, the
        // journal already holds this report's record.
        EXPECT_EQ(sa->journal_next_seq(), emitted.size() + 1);
        emitted.push_back(report_json(r.diagnosis));
      },
      base_stream());
  ASSERT_TRUE(sa->enable_durability(dir.path));
  for (const auto& r : recs) {
    sa->advance_to(r.ts);
    sa->offer(r);
  }
  sa->finish();
  ASSERT_FALSE(emitted.empty());

  // And the durable payloads are byte-identical to what the sink saw.
  const auto recs_on_disk = persist::ReportJournal::read_from(dir.path, 0);
  // purge_below at checkpoints may have dropped covered segments; what
  // remains must still be a suffix that matches, and next_seq must equal
  // the emitted count.
  EXPECT_EQ(sa->journal_next_seq(), emitted.size());
  for (const auto& rec : recs_on_disk) {
    ASSERT_LT(rec.seq, emitted.size());
    EXPECT_EQ(rec.payload, emitted[rec.seq]) << "seq " << rec.seq;
  }
}

TEST(Recovery, CleanShutdownRestoreResumesExactState) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  StreamCounters before;
  util::SimTime watermark;
  {
    StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                            base_options(), {}, base_stream());
    ASSERT_TRUE(streamer.enable_durability(dir.path));
    for (const auto& r : recs) {
      streamer.advance_to(r.ts);
      streamer.offer(r);
    }
    streamer.finish();  // writes the final checkpoint
    before = streamer.counters();
    watermark = streamer.watermark();
  }
  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(ri.recovered);
  EXPECT_FALSE(ri.db_mismatch);
  EXPECT_EQ(ri.corrupt_checkpoints_skipped, 0u);
  EXPECT_EQ(ri.journal_records_truncated, 0u);
  // The final checkpoint covers the whole journal: nothing to replay.
  EXPECT_TRUE(ri.replayed.empty());
  const auto& after = restored->counters();
  EXPECT_EQ(after.offered, before.offered);
  EXPECT_EQ(after.ingested, before.ingested);
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.ticks, before.ticks);
  EXPECT_EQ(after.reports, before.reports);
  EXPECT_EQ(restored->watermark().nanos(), watermark.nanos());
  EXPECT_EQ(restored->journal_next_seq(), before.reports);
  // Ledger reconciles inside the restored snapshot.
  EXPECT_EQ(after.offered, after.ingested + after.shed);
  EXPECT_EQ(restored->queued(), 0u);
}

// A checkpoint taken between ticks (signal handler, manual snapshot)
// drains the ring into the analyzer first, so it must save the loss count
// as it stands then, not as it stood at the last tick.
TEST(Recovery, ManualCheckpointBetweenTicksRestoresLiveLossCount) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  ASSERT_GT(recs.size(), 200u);
  TempDir dir;
  StreamOptions stream = base_stream();
  stream.source_ring = 64;
  std::uint64_t saved_losses = 0;
  std::uint64_t expected_losses = 0;
  {
    StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                            base_options(), {}, stream);
    ASSERT_TRUE(streamer.enable_durability(dir.path));
    // Half the capture on the tick grid, then the rest offered without
    // advancing the watermark: everything past the ring's 64 is shed.
    const std::size_t half = recs.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      streamer.advance_to(recs[i].ts);
      streamer.offer(recs[i]);
    }
    const auto shed_on_grid = streamer.counters().shed;
    const auto ticks = streamer.counters().ticks;
    ASSERT_GT(ticks, 0u);
    for (std::size_t i = half; i < recs.size(); ++i) streamer.offer(recs[i]);
    ASSERT_GT(streamer.counters().shed, shed_on_grid);
    ASSERT_TRUE(streamer.checkpoint_now());
    EXPECT_EQ(streamer.counters().ticks, ticks);
    saved_losses = streamer.analyzer().detector_stats().losses_recorded;
    expected_losses = streamer.counters().shed +
                      streamer.analyzer().tap_stats().decode_failures;
  }
  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  ASSERT_TRUE(ri.recovered);
  const auto restored_losses =
      restored->analyzer().detector_stats().losses_recorded;
  EXPECT_EQ(restored_losses, saved_losses);
  EXPECT_EQ(restored_losses, expected_losses);
}

TEST(Recovery, JournalTailReplaysAfterUncleanStop) {
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  // No finish(): the analyzer dies with reports journaled since the last
  // cadence checkpoint (interval 2s << 30s window guarantees several
  // checkpoints and a non-covered tail is likely; zero-tail is also legal).
  const auto emitted = run_stream(recs, dir.path, /*call_finish=*/false);
  ASSERT_FALSE(emitted.empty());

  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  // Leg 1 of the invariant: zero journaled reports lost.  Sequence
  // numbering resumes exactly after every report the sink acknowledged.
  EXPECT_EQ(restored->journal_next_seq(), emitted.size());
  EXPECT_EQ(restored->counters().reports, emitted.size());
  // Replayed records are the exact byte payloads delivered pre-crash.
  for (const auto& rec : ri.replayed) {
    ASSERT_LT(rec.seq, emitted.size());
    EXPECT_EQ(rec.payload, emitted[rec.seq]) << "seq " << rec.seq;
  }
}

TEST(Recovery, NoCheckpointMeansColdStartButJournalStillCounts) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  auto stream = base_stream();
  stream.checkpoint_interval_s = 1e9;  // cadence never fires
  std::vector<std::string> emitted;
  {
    StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                            base_options(),
                            [&](const StreamReport& r) {
                              emitted.push_back(report_json(r.diagnosis));
                            },
                            stream);
    ASSERT_TRUE(streamer.enable_durability(dir.path));
    for (const auto& r : recs) {
      streamer.advance_to(r.ts);
      streamer.offer(r);
    }
    // killed here: no finish, no checkpoint ever written
  }
  ASSERT_FALSE(emitted.empty());
  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(ri.recovered);
  ASSERT_EQ(ri.replayed.size(), emitted.size());
  for (std::size_t i = 0; i < emitted.size(); ++i)
    EXPECT_EQ(ri.replayed[i].payload, emitted[i]);
  // Report numbering continues from the journal even without a checkpoint.
  EXPECT_EQ(restored->counters().reports, emitted.size());
}

TEST(Checkpoint, RestoreFallsBackAcrossACorruptNewestFile) {
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  run_stream(recs, dir.path);  // finish() leaves a valid final checkpoint
  const auto seqs = persist::list_checkpoints(dir.path);
  ASSERT_FALSE(seqs.empty());
  // Torn write artifact: newest checkpoint truncated to garbage.
  {
    std::FILE* f =
        std::fopen(persist::checkpoint_path(dir.path, seqs[0]).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("GRTCKP02 torn mid-write", f);
    std::fclose(f);
  }
  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(ri.corrupt_checkpoints_skipped, 1u);
  if (seqs.size() > 1) {
    EXPECT_TRUE(ri.recovered);
    EXPECT_EQ(ri.checkpoint_seq, seqs[1]);
  }
}

TEST(Recovery, OlderLayoutCheckpointColdStartsAndJournalStillCounts) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  const auto emitted = run_stream(recs, dir.path);
  ASSERT_FALSE(emitted.empty());
  // A directory last written in the GRTCKP01 layout: its newest (here its
  // only) checkpoint carries the older magic.
  const auto seqs = persist::list_checkpoints(dir.path);
  ASSERT_FALSE(seqs.empty());
  for (std::size_t i = 1; i < seqs.size(); ++i)
    fs::remove(persist::checkpoint_path(dir.path, seqs[i]));
  const std::string path = persist::checkpoint_path(dir.path, seqs[0]);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("GRTCKP01", f);
    std::fclose(f);
  }

  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(ri.recovered);
  EXPECT_EQ(ri.corrupt_checkpoints_skipped, 1u);
  // The learned state cold-starts...
  StreamAnalyzer fresh(&e.training.db, &e.catalog.apis(), &e.deployment,
                       base_options(), {}, base_stream());
  std::string restored_state, fresh_state;
  restored->analyzer().save_state(restored_state);
  fresh.analyzer().save_state(fresh_state);
  EXPECT_TRUE(restored_state == fresh_state);
  // ...while the journal still numbers every report exactly.
  EXPECT_TRUE(restored->durable());
  EXPECT_EQ(restored->journal_next_seq(), emitted.size());
  EXPECT_EQ(restored->counters().reports, emitted.size());

  // The cold-started stream checkpoints past the older file, so its own
  // checkpoint is the newest on disk and is the one the next restore loads.
  for (const auto& r : recs) {
    restored->advance_to(r.ts);
    restored->offer(r);
  }
  ASSERT_TRUE(restored->checkpoint_now());
  std::string checkpointed_state;
  restored->analyzer().save_state(checkpointed_state);
  restored.reset();
  RecoveryInfo again;
  auto resumed = restore(dir.path, &again);
  ASSERT_NE(resumed, nullptr);
  EXPECT_TRUE(again.recovered);
  EXPECT_EQ(again.corrupt_checkpoints_skipped, 0u);
  EXPECT_GT(again.checkpoint_seq, seqs[0]);
  std::string resumed_state;
  resumed->analyzer().save_state(resumed_state);
  EXPECT_TRUE(resumed_state == checkpointed_state);
}

TEST(Recovery, DbIdentityMismatchColdStartsLearnedState) {
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  const auto emitted = run_stream(recs, dir.path);
  // Simulate a DB hot swap between checkpoint and crash: rewrite the
  // newest checkpoint with a different db identity (valid CRCs, wrong DB).
  ASSERT_TRUE(rewrite_newest_checkpoint(dir.path, [](persist::Checkpoint& c) {
    c.meta.db_catalog_hash ^= 0xBADBADBADull;
  }));

  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(ri.db_mismatch);
  EXPECT_FALSE(ri.recovered);
  // The journal does not depend on the DB identity: report numbering is
  // still exact.
  EXPECT_EQ(restored->journal_next_seq(), emitted.size());
}

TEST(Recovery, TrailingBytesInAnalyzerStateColdStartFromAFreshAnalyzer) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  TempDir dir;
  run_stream(recs, dir.path);  // finish() leaves a valid final checkpoint
  // A checkpoint whose sections pass CRC but whose analyzer blob decodes
  // with one byte left over: the learned sections load, then the leftover
  // byte rejects the blob.
  ASSERT_TRUE(rewrite_newest_checkpoint(dir.path, [](persist::Checkpoint& c) {
    c.analyzer_state.push_back('\x01');
  }));

  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(ri.recovered);
  EXPECT_EQ(ri.corrupt_checkpoints_skipped, 1u);
  // Cold start means cold: none of the partly loaded learned state
  // survives.
  StreamAnalyzer fresh(&e.training.db, &e.catalog.apis(), &e.deployment,
                       base_options(), {}, base_stream());
  std::string restored_state, fresh_state;
  restored->analyzer().save_state(restored_state);
  fresh.analyzer().save_state(fresh_state);
  EXPECT_TRUE(restored_state == fresh_state)
      << "the cold start kept partly loaded learned state";
  // The journal stays armed and its numbering exact.
  EXPECT_TRUE(restored->durable());
  EXPECT_EQ(restored->journal_next_seq(), restored->counters().reports);
}

TEST(Recovery, ResumedStreamLedgerReconcilesThroughFinish) {
  auto& e = env();
  const auto recs = record_workload(10, 3, 0x5EED41);
  ASSERT_GT(recs.size(), 100u);
  TempDir dir;
  // First life: feed the first 60%, checkpoint, die without finish().
  {
    StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                            base_options(), {}, base_stream());
    ASSERT_TRUE(streamer.enable_durability(dir.path));
    const std::size_t cut = recs.size() * 6 / 10;
    for (std::size_t i = 0; i < cut; ++i) {
      streamer.advance_to(recs[i].ts);
      streamer.offer(recs[i]);
    }
    ASSERT_TRUE(streamer.checkpoint_now());
  }
  // Second life: restore and feed everything past the watermark.
  RecoveryInfo ri;
  auto restored = restore(dir.path, &ri);
  ASSERT_NE(restored, nullptr);
  ASSERT_TRUE(ri.recovered);
  const auto resumed_from = restored->watermark();
  for (const auto& r : recs) {
    if (r.ts.nanos() <= resumed_from.nanos()) continue;
    restored->advance_to(r.ts);
    restored->offer(r);
  }
  restored->finish();
  const auto& c = restored->counters();
  // Leg 3 of the invariant: the ledger re-reconciles across the restart.
  EXPECT_EQ(c.offered, c.ingested + c.shed);
  EXPECT_EQ(restored->queued(), 0u);
  // And the stream made progress in its second life.
  EXPECT_GT(restored->watermark().nanos(), resumed_from.nanos());
}

}  // namespace
}  // namespace gretel::stream
