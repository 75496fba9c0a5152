// GRTWAL01: the append-only report journal.
//
// Durability contract: a StreamReport does not count as emitted until its
// journal record is fsync'd — append() returns only after the bytes are on
// the device, and only then does the stream analyzer deliver the report to
// its sink.  A crash at any instruction therefore loses zero
// sink-delivered reports; recovery states exactly which sequence numbers
// are on disk.
//
// Segment layout: wal-<base_seq>.grtwal files under the persistence dir.
//   header  "GRTWAL01" + u64 base_seq       (seq of the first record)
//   record  u32 len, u32 crc32(body), body
//   body    u64 seq, u64 tick, i64 emitted_at_ns, f64 report_delay_ms,
//           payload bytes (diagnosis JSON; len covers the whole body)
//
// Records are strictly sequential (seq = base_seq + index within the
// file).  On open the tail segment is scanned and a torn final record —
// the artifact of a crash mid-append — is truncated away; everything
// before it is intact by CRC.  Rotation starts a new segment every
// `segment_records` records; segments fully covered by a checkpoint are
// purged at checkpoint time (recovery only replays the tail).
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "util/time.h"

namespace gretel::persist {

struct JournalRecord {
  std::uint64_t seq = 0;
  std::uint64_t tick = 0;
  std::int64_t emitted_at_ns = 0;
  double report_delay_ms = 0.0;
  std::string payload;  // diagnosis JSON (gretel/json_export.h)
};

class ReportJournal {
 public:
  // Opens the journal in `dir` (created if missing) for appending: scans
  // the newest segment, truncates a torn tail, and positions next_seq
  // after the last intact record.  `truncated_records`, when non-null,
  // receives how many torn tail records were dropped (0 or 1 for a single
  // crash).  Returns nullopt only on I/O errors that make appends
  // impossible (unwritable dir).
  static std::optional<ReportJournal> open(const std::string& dir,
                                           std::size_t segment_records,
                                           std::size_t* truncated_records);

  ReportJournal(ReportJournal&& other) noexcept;
  ReportJournal& operator=(ReportJournal&& other) noexcept;
  ReportJournal(const ReportJournal&) = delete;
  ReportJournal& operator=(const ReportJournal&) = delete;
  ~ReportJournal();

  // Appends one record and fsyncs it; returns the assigned seq.  The
  // record is durable when this returns with next_seq() advanced past it;
  // if the write, flush or fsync fails (or, on rotation, the new segment's
  // header or directory entry cannot be synced) next_seq() stays put, the
  // record is not acknowledged and its bytes are cut back off the segment.
  // Honors the "journal.append" crash fail point (leaves a torn record,
  // throws SimulatedCrash) and the "journal.fsync_fail" failure point (the
  // record's fsync reports failure).
  std::uint64_t append(std::uint64_t tick, util::SimTime emitted_at,
                       double report_delay_ms, std::string_view payload);

  // Next sequence number append() will assign.
  std::uint64_t next_seq() const { return next_seq_; }

  // Drops whole segments whose every record has seq < before_seq (i.e.
  // fully covered by a checkpoint).  The active segment is never dropped.
  void purge_below(std::uint64_t before_seq);

  // Every intact record with seq >= from_seq across all segments in `dir`,
  // in sequence order.  Torn tails are skipped, not errors — this is the
  // recovery read path and runs against post-crash state.
  static std::vector<JournalRecord> read_from(const std::string& dir,
                                              std::uint64_t from_seq);

 private:
  ReportJournal() = default;
  bool open_segment(std::uint64_t base_seq);
  // Closes the segment, truncates it to `size` bytes and reopens it for
  // appending; false if any step fails (file_ is then null).
  bool cut_back(long size);

  std::string dir_;
  std::size_t segment_records_ = 4096;
  std::FILE* file_ = nullptr;
  std::uint64_t segment_base_ = 0;  // seq of the current segment's first rec
  std::uint64_t next_seq_ = 0;
  // Set when a failed append could not be cut back off the segment:
  // every later append fails rather than repeat the seq left there.
  bool failed_ = false;
};

}  // namespace gretel::persist
