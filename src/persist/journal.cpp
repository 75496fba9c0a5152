#include "persist/journal.h"

#include <algorithm>
#include <filesystem>

#include "persist/crash_hook.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gretel::persist {

namespace {

constexpr std::string_view kMagic = "GRTWAL01";
constexpr std::string_view kPrefix = "wal-";
constexpr std::string_view kSuffix = ".grtwal";
constexpr std::size_t kHeaderSize = 8 + 8;  // magic + base_seq

// Flushes `f`'s bytes to the device; false if the fsync fails.
bool sync_file(std::FILE* f) {
#if defined(__unix__) || defined(__APPLE__)
  return fsync(fileno(f)) == 0;
#else
  (void)f;
  return true;
#endif
}

std::string segment_path(const std::string& dir, std::uint64_t base_seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%020llu",
                static_cast<unsigned long long>(base_seq));
  return dir + "/" + std::string(kPrefix) + buf + std::string(kSuffix);
}

// Base seqs of every segment in `dir`, ascending.
std::vector<std::uint64_t> list_segments(const std::string& dir) {
  std::vector<std::uint64_t> bases;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return bases;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    bases.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(bases.begin(), bases.end());
  return bases;
}

std::string encode_body(std::uint64_t seq, std::uint64_t tick,
                        std::int64_t emitted_ns, double delay_ms,
                        std::string_view payload) {
  std::string body;
  util::put_u64(body, seq);
  util::put_u64(body, tick);
  util::put_i64(body, emitted_ns);
  util::put_f64(body, delay_ms);
  body += payload;
  return body;
}

bool decode_body(std::string_view body, JournalRecord& rec) {
  if (!util::get_u64(body, rec.seq) || !util::get_u64(body, rec.tick) ||
      !util::get_i64(body, rec.emitted_at_ns) ||
      !util::get_f64(body, rec.report_delay_ms)) {
    return false;
  }
  rec.payload.assign(body);
  return true;
}

struct SegmentScan {
  std::uint64_t base_seq = 0;
  std::vector<JournalRecord> records;
  // Byte offset of the first torn/invalid record (== file size when the
  // whole segment is intact) — the truncation point for recovery.
  std::size_t intact_bytes = 0;
  bool header_ok = false;
};

// Walks a segment, CRC-checking every record, stopping (not failing) at
// the first torn one: everything after a torn record is untrusted.
SegmentScan scan_segment(const std::string& path,
                         std::uint64_t expected_base) {
  SegmentScan scan;
  const auto data = util::read_file(path);
  if (!data) return scan;
  std::string_view in = *data;
  std::string_view magic = in.substr(0, std::min(in.size(), kMagic.size()));
  std::uint64_t base = 0;
  if (magic != kMagic) return scan;
  in.remove_prefix(kMagic.size());
  if (!util::get_u64(in, base) || base != expected_base) return scan;
  scan.header_ok = true;
  scan.base_seq = base;
  scan.intact_bytes = kHeaderSize;

  std::uint64_t expect_seq = base;
  while (!in.empty()) {
    std::string_view cursor = in;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!util::get_u32(cursor, len) || !util::get_u32(cursor, crc) ||
        cursor.size() < len) {
      break;  // torn tail
    }
    const std::string_view body = cursor.substr(0, len);
    if (util::crc32(body) != crc) break;  // torn or corrupt
    JournalRecord rec;
    if (!decode_body(body, rec) || rec.seq != expect_seq) break;
    scan.records.push_back(std::move(rec));
    ++expect_seq;
    const std::size_t consumed = 4 + 4 + len;
    scan.intact_bytes += consumed;
    in.remove_prefix(consumed);
  }
  return scan;
}

}  // namespace

std::optional<ReportJournal> ReportJournal::open(
    const std::string& dir, std::size_t segment_records,
    std::size_t* truncated_records) {
  if (truncated_records) *truncated_records = 0;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  ReportJournal j;
  j.dir_ = dir;
  j.segment_records_ = std::max<std::size_t>(1, segment_records);

  const auto bases = list_segments(dir);
  if (bases.empty()) {
    // Fresh journal: the first append creates wal-0.
    return j;
  }

  const std::uint64_t base = bases.back();
  const std::string path = segment_path(dir, base);
  const auto scan = scan_segment(path, base);
  if (!scan.header_ok) {
    // The newest segment's header never made it to disk (crash between
    // rotation's file creation and header flush).  The file carries no
    // records; drop it and resume from the previous segment's end.
    std::filesystem::remove(path, ec);
    if (bases.size() == 1) return j;
    const std::uint64_t prev = bases[bases.size() - 2];
    const auto prev_scan = scan_segment(segment_path(dir, prev), prev);
    if (!prev_scan.header_ok) return std::nullopt;
    std::filesystem::resize_file(segment_path(dir, prev),
                                 prev_scan.intact_bytes, ec);
    if (ec) return std::nullopt;
    j.segment_base_ = prev;
    j.next_seq_ = prev + prev_scan.records.size();
  } else {
    // Torn-tail truncation: cut the segment back to its last intact
    // record.  This is the crash-mid-append artifact; at most one record
    // (never fsync-acknowledged) is dropped per crash.
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec && size > scan.intact_bytes) {
      if (truncated_records) *truncated_records = 1;
      std::filesystem::resize_file(path, scan.intact_bytes, ec);
      if (ec) return std::nullopt;
    }
    j.segment_base_ = base;
    j.next_seq_ = base + scan.records.size();
  }

  // Reopen the tail segment for appending.
  std::FILE* f = std::fopen(segment_path(dir, j.segment_base_).c_str(), "ab");
  if (!f) {
    // No tail segment exists (fresh dir after header-less removal); the
    // next append creates one.
    return j;
  }
  j.file_ = f;
  return j;
}

ReportJournal::ReportJournal(ReportJournal&& other) noexcept
    : dir_(std::move(other.dir_)),
      segment_records_(other.segment_records_),
      file_(other.file_),
      segment_base_(other.segment_base_),
      next_seq_(other.next_seq_),
      failed_(other.failed_) {
  other.file_ = nullptr;
}

ReportJournal& ReportJournal::operator=(ReportJournal&& other) noexcept {
  if (this != &other) {
    if (file_) std::fclose(file_);
    dir_ = std::move(other.dir_);
    segment_records_ = other.segment_records_;
    file_ = other.file_;
    segment_base_ = other.segment_base_;
    next_seq_ = other.next_seq_;
    failed_ = other.failed_;
    other.file_ = nullptr;
  }
  return *this;
}

ReportJournal::~ReportJournal() {
  if (file_) std::fclose(file_);
}

bool ReportJournal::open_segment(std::uint64_t base_seq) {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = segment_path(dir_, base_seq);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::string header;
  header += kMagic;
  util::put_u64(header, base_seq);
  // The header and the new directory entry are durable before any record
  // lands in the segment.
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
      std::fflush(f) != 0 || !sync_file(f) || !util::sync_parent_dir(path)) {
    std::fclose(f);
    return false;
  }
  file_ = f;
  segment_base_ = base_seq;
  return true;
}

bool ReportJournal::cut_back(long size) {
  // Close first: stdio may still buffer part of the failed record, and
  // fclose's late flush of it lands past `size`, so the cut removes it.
  std::fclose(file_);
  file_ = nullptr;
  const std::string path = segment_path(dir_, segment_base_);
  std::error_code ec;
  std::filesystem::resize_file(path, static_cast<std::uintmax_t>(size), ec);
  if (ec) return false;
  file_ = std::fopen(path.c_str(), "ab");
  return file_ != nullptr;
}

std::uint64_t ReportJournal::append(std::uint64_t tick,
                                    util::SimTime emitted_at,
                                    double report_delay_ms,
                                    std::string_view payload) {
  if (failed_) return next_seq_;
  // Rotate at the segment boundary (or lazily create the first segment).
  if (!file_ || next_seq_ - segment_base_ >= segment_records_) {
    if (!open_segment(next_seq_)) return next_seq_;
  }
  // Where this record starts: the segment is cut back here if it fails.
  const long start = std::ftell(file_);
  if (start < 0) return next_seq_;

  const std::uint64_t seq = next_seq_;
  const std::string body =
      encode_body(seq, tick, emitted_at.nanos(), report_delay_ms, payload);
  std::string record;
  util::put_u32(record, static_cast<std::uint32_t>(body.size()));
  util::put_u32(record, util::crc32(body));
  record += body;

  if (crash_requested("journal.append")) {
    // A real crash mid-append leaves a prefix of the record on disk; the
    // CRC on open detects it and truncation drops it.  The report was
    // never acknowledged, so nothing durable is lost.
    std::fwrite(record.data(), 1, record.size() / 2, file_);
    std::fflush(file_);
    sync_file(file_);
    throw SimulatedCrash{};
  }

  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0 || !sync_file(file_) ||
      crash_requested("journal.fsync_fail")) {
    // I/O failure: seq is not advanced past a non-durable record, and the
    // record's bytes leave the segment so the next append, which reuses
    // seq, does not follow a copy of it (a reopen would stop at the
    // repeated seq and drop every later, acknowledged record).  A segment
    // that cannot be cut back takes no further appends.
    if (!cut_back(start)) failed_ = true;
    return seq;
  }
  ++next_seq_;
  return seq;
}

void ReportJournal::purge_below(std::uint64_t before_seq) {
  const auto bases = list_segments(dir_);
  std::error_code ec;
  for (std::size_t i = 0; i + 1 < bases.size(); ++i) {
    // Segment i holds seqs [bases[i], bases[i+1]); fully covered when the
    // next segment starts at or below the checkpoint mark.  The active
    // (last) segment is never purged.
    if (bases[i + 1] <= before_seq && bases[i] != segment_base_) {
      std::filesystem::remove(segment_path(dir_, bases[i]), ec);
    }
  }
}

std::vector<JournalRecord> ReportJournal::read_from(const std::string& dir,
                                                    std::uint64_t from_seq) {
  std::vector<JournalRecord> out;
  for (std::uint64_t base : list_segments(dir)) {
    auto scan = scan_segment(segment_path(dir, base), base);
    for (auto& rec : scan.records) {
      if (rec.seq >= from_seq) out.push_back(std::move(rec));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace gretel::persist
