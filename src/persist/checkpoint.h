// GRTCKP02: the versioned, CRC-checked checkpoint format.
//
// A checkpoint is one file, written atomically (tmp+fsync+rename, like
// save_fingerprint_db), holding everything the stream analyzer needs to
// resume after a kill: the learned analyzer state (level-shift baselines,
// pending pairings, orphan clocks — via Analyzer::save_state),
// the stream flow-ledger counters, the fingerprint-DB identity it was
// running against, and the journal high-water mark that ties the
// checkpoint to the report journal.
//
// Layout (integers big-endian, util/binio.h), two bodies in fixed order:
//   magic     "GRTCKP02"
//   meta      u32 len, u32 crc32, bytes   ledger counters, watermark,
//                                         journal mark, db identity
//   analyzer  u32 len, u32 crc32, bytes   Analyzer::save_state blob
//
// Nothing follows the analyzer body.  A file with any other magic (the
// GRTCKP01 layout included) does not decode, like any other corrupt file.
// The encoder writes the whole file into one buffer in one pass: each
// body's len/crc slot is reserved, its bytes are appended in place (the
// analyzer's save_state blob included), and the slot is patched after.
// Every body carries its own CRC32 (util/crc32.h): a torn write or a
// flipped bit fails the checksum and the loader falls back to the next
// newest file instead of resuming from garbage.  Files are named
// checkpoint-<seq>.grtckp with a monotonically increasing u64 seq.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gretel::persist {

struct CheckpointMeta {
  std::uint64_t checkpoint_seq = 0;  // monotone per analyzer lifetime
  std::int64_t watermark_ns = 0;     // stream watermark (sim time)
  // First journal sequence number NOT covered by this checkpoint: every
  // journaled report with seq < journal_next_seq was emitted before the
  // snapshot.  Recovery replays the journal tail from here.
  std::uint64_t journal_next_seq = 0;
  // Flow-ledger counters (stream::StreamCounters).  The snapshot is taken
  // at a tick boundary right after the ring drained, so the ledger
  // reconciles inside the checkpoint: offered == ingested + shed.
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_episodes = 0;
  std::uint64_t ticks = 0;  // also the tick the snapshot was taken at
  std::uint64_t reports = 0;
  std::uint64_t reports_evicted = 0;
  std::uint64_t metrics = 0;
  // Identity of the fingerprint DB the analyzer was running against:
  // catalog hash + CRC32 of the encoded DB.  restore() refuses to graft
  // learned state onto a different DB (a hot swap between checkpoint and
  // crash falls back to a cold start of the learned state).
  std::uint64_t db_catalog_hash = 0;
  std::uint32_t db_content_crc = 0;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::string analyzer_state;  // core::Analyzer::save_state blob
};

// Replaces `out` with the encoded checkpoint (keeping its capacity).
// `append_state` appends the analyzer body's bytes to the buffer it is
// given, in place; nothing copies them again.
void encode_checkpoint(std::string& out, const CheckpointMeta& meta,
                       const std::function<void(std::string&)>& append_state);
std::optional<Checkpoint> decode_checkpoint(std::string_view data);

// File name for a given checkpoint seq (under `dir`).
std::string checkpoint_path(const std::string& dir, std::uint64_t seq);

// Atomically writes the encoded checkpoint `data` as
// checkpoint-<seq>.grtckp into the existing directory `dir` (the journal's
// open() creates it), its directory entry fsync'd, then prunes all but the
// newest `keep` checkpoint files.
// `on_disk` is the writer's record of the checkpoint seqs in `dir`, newest
// first: list_checkpoints() once when the writer arms, then kept current
// by every call (the new seq added, pruned seqs removed), so a write never
// scans the directory.  Returns false, with `on_disk` unchanged, if any
// write, fsync or rename fails.  Honors the crash-injection fail points
// (crash_hook.h); a simulated crash propagates as SimulatedCrash after
// leaving the partial artifact.
bool write_checkpoint(const std::string& dir, std::uint64_t seq,
                      std::string_view data,
                      std::vector<std::uint64_t>& on_disk, std::size_t keep);

// Checkpoint seqs present in `dir`, newest first (file names only; the
// contents may still be corrupt).
std::vector<std::uint64_t> list_checkpoints(const std::string& dir);

// Loads the newest checkpoint among `seqs` (newest first, as
// list_checkpoints returns them) that decodes cleanly, falling back across
// corrupt files.  `corrupt_skipped`, when non-null, receives the number of
// newer files that failed validation (recovery reports it).
std::optional<Checkpoint> load_newest_checkpoint(
    const std::string& dir, const std::vector<std::uint64_t>& seqs,
    std::size_t* corrupt_skipped);

}  // namespace gretel::persist
