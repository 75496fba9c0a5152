// Kill-point recovery campaigns: crash the streaming analyzer on purpose,
// restore it from disk, and assert the durability invariant every round.
//
// Each round runs a seeded fault workload through a durable StreamAnalyzer
// and deterministically kills it at one of the kill points below (cycling
// through all of them across rounds).  The process-death simulation is
// in-process: the persist layer's crash fail points leave the exact
// partial on-disk artifact a real crash at that instruction would
// (persist/crash_hook.h), the analyzer object is discarded — in-memory
// state is lost, exactly like SIGKILL — and StreamAnalyzer::restore()
// rebuilds from the surviving files alone.
//
// Invariant asserted per round (docs/ARCHITECTURE.md, "Durability &
// recovery"):
//   1. Zero journaled reports are lost: every report the sink saw before
//      the crash is on disk, byte-identical, with exact sequence numbers
//      (the journal fsyncs before the sink is called).
//   2. At most one checkpoint interval (plus one tick of quantization) of
//      learned baseline regresses: the restored watermark trails the
//      crash watermark by no more than checkpoint_interval_s + tick_ms.
//   3. The flow ledger re-reconciles after restart:
//      offered == ingested + shed with queued() == 0, both immediately
//      after restore() and again after the stream is resumed and finished.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gretel/training.h"
#include "stream/stream_analyzer.h"
#include "tempest/catalog.h"

namespace gretel::campaign {

// Where the crash lands.  The first is a plain kill between ticks (no
// torn artifact); the middle four arm the persist layer's named fail
// points; the last simulates a fingerprint-DB hot swap torn mid-write.
enum class KillPoint : std::uint8_t {
  BetweenTicks,          // SIGKILL between ticks: clean files, lost memory
  MidJournalAppend,      // torn journal record (never acknowledged)
  MidCheckpointWrite,    // truncated checkpoint .tmp, dest untouched
  PreCheckpointRename,   // complete orphaned .tmp, dest untouched
  PostCheckpointRename,  // checkpoint durable, old files unpruned
  DuringDbSwap,          // torn GRTFDB02 left by a crashed hot swap
};
inline constexpr std::size_t kKillPoints = 6;
const char* to_string(KillPoint p);

struct RecoveryRoundResult {
  std::uint64_t round = 0;
  KillPoint kill_point = KillPoint::BetweenTicks;
  bool crashed = false;  // the kill actually fired this round

  // The three invariant legs, plus their conjunction.
  bool reports_durable = false;
  bool baseline_bounded = false;
  bool ledger_ok = false;
  bool invariant_ok = false;

  bool recovered = false;  // restore() applied a checkpoint
  std::uint64_t reports_pre_crash = 0;   // sink deliveries before the kill
  std::uint64_t reports_journaled = 0;   // durable records found on disk
  std::uint64_t reports_replayed = 0;    // journal tail past the checkpoint
  std::uint64_t reports_final = 0;       // total after the resumed run
  std::size_t corrupt_checkpoints_skipped = 0;
  std::size_t journal_records_truncated = 0;
  double baseline_regressed_s = 0.0;  // crash watermark - resume floor
  double recovery_ms = 0.0;           // wall time of restore()
  std::size_t state_bytes = 0;        // checkpoint file size restored from
  std::string note;  // first failed assertion, else empty
};

struct RecoveryCampaignConfig {
  std::uint64_t seed = 42;
  // Kill rounds; kill points cycle so every point is hit when
  // rounds >= kKillPoints.
  std::size_t rounds = 12;
  int concurrent_tests = 8;
  double window_s = 45.0;
  // Stream cadence and durability of every round (the tool validates it
  // as one StreamOptions).  Small segments so rounds exercise rotation +
  // purge, not just one file.
  stream::StreamOptions stream = {.tick_ms = 200.0,
                                  .checkpoint_interval_s = 2.0,
                                  .journal_segment_records = 8};
  // Root directory for per-round persistence subdirs (wiped per round).
  std::string dir = "recovery-campaign";
};

struct RecoveryCampaignReport {
  std::vector<RecoveryRoundResult> rounds;
  std::size_t crashes = 0;             // rounds where the kill fired
  std::size_t recovered = 0;           // rounds restored from a checkpoint
  std::size_t invariant_failures = 0;  // rounds failing any invariant leg
  bool all_ok() const { return invariant_failures == 0; }
};

class RecoveryCampaign {
 public:
  RecoveryCampaign(const tempest::TempestCatalog* catalog,
                   const core::TrainingReport* training,
                   RecoveryCampaignConfig cfg);

  RecoveryCampaignReport run();

 private:
  RecoveryRoundResult run_round(std::uint64_t round, KillPoint point);

  const tempest::TempestCatalog* catalog_;
  const core::TrainingReport* training_;
  RecoveryCampaignConfig cfg_;
};

}  // namespace gretel::campaign
