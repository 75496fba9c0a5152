// Report journal (GRTWAL01) contract: fsync-before-acknowledge sequencing,
// segment rotation and purge, torn-tail truncation on open, the
// mid-append crash artifact, a failed fsync leaving no record behind, and
// the recovery read path.
#include "persist/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "persist/crash_hook.h"
#include "util/atomic_file.h"
#include "util/time.h"

namespace gretel::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    path = (fs::temp_directory_path() /
            ("grtwal-test-" + std::to_string(::getpid()) + "-" +
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

util::SimTime at(double s) {
  return util::SimTime(static_cast<std::int64_t>(s * 1e9));
}

TEST(Journal, AppendAssignsSequentialDurableSeqs) {
  TempDir dir;
  auto j = ReportJournal::open(dir.path, 4096, nullptr);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->append(1, at(1.0), 10.0, "r0"), 0u);
  EXPECT_EQ(j->append(1, at(1.0), 11.0, "r1"), 1u);
  EXPECT_EQ(j->append(2, at(2.0), 12.0, "r2"), 2u);
  EXPECT_EQ(j->next_seq(), 3u);

  const auto recs = ReportJournal::read_from(dir.path, 0);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].payload, "r0");
  EXPECT_EQ(recs[2].seq, 2u);
  EXPECT_EQ(recs[2].tick, 2u);
  EXPECT_DOUBLE_EQ(recs[2].report_delay_ms, 12.0);
}

TEST(Journal, ReopenContinuesSequenceNumbers) {
  TempDir dir;
  {
    auto j = ReportJournal::open(dir.path, 4096, nullptr);
    ASSERT_TRUE(j.has_value());
    j->append(1, at(1.0), 0.0, "a");
    j->append(1, at(1.0), 0.0, "b");
  }
  auto j = ReportJournal::open(dir.path, 4096, nullptr);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->next_seq(), 2u);
  EXPECT_EQ(j->append(2, at(2.0), 0.0, "c"), 2u);
  EXPECT_EQ(ReportJournal::read_from(dir.path, 0).size(), 3u);
}

TEST(Journal, RotatesSegmentsAndPurgesCoveredOnes) {
  TempDir dir;
  auto j = ReportJournal::open(dir.path, /*segment_records=*/2, nullptr);
  ASSERT_TRUE(j.has_value());
  for (int i = 0; i < 7; ++i) {
    std::string payload = "p";
    payload += std::to_string(i);
    j->append(1, at(1.0), 0.0, payload);
  }
  // 7 records, 2 per segment -> segments at 0, 2, 4, 6.
  std::size_t segments = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++segments;
  }
  EXPECT_EQ(segments, 4u);

  // A checkpoint at seq 5 covers segments [0,2) and [2,4); [4,6) holds 5.
  j->purge_below(5);
  const auto recs = ReportJournal::read_from(dir.path, 0);
  ASSERT_GE(recs.size(), 3u);
  EXPECT_EQ(recs.front().seq, 4u);
  EXPECT_EQ(recs.back().seq, 6u);
  // Appends continue unaffected.
  EXPECT_EQ(j->append(2, at(2.0), 0.0, "p7"), 7u);
}

TEST(Journal, TornTailIsTruncatedOnOpen) {
  TempDir dir;
  std::string seg_path;
  {
    auto j = ReportJournal::open(dir.path, 4096, nullptr);
    ASSERT_TRUE(j.has_value());
    j->append(1, at(1.0), 0.0, "intact-0");
    j->append(1, at(1.0), 0.0, "intact-1");
  }
  for (const auto& e : fs::directory_iterator(dir.path))
    seg_path = e.path().string();
  // A crash mid-append leaves a prefix of a record: garbage bytes that
  // parse as a length but fail the CRC.
  {
    std::FILE* f = std::fopen(seg_path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "\x00\x00\x00\x20garbage";
    std::fwrite(torn, 1, sizeof torn - 1, f);
    std::fclose(f);
  }
  std::size_t truncated = 0;
  auto j = ReportJournal::open(dir.path, 4096, &truncated);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(truncated, 1u);
  EXPECT_EQ(j->next_seq(), 2u);
  const auto recs = ReportJournal::read_from(dir.path, 0);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].payload, "intact-1");
  // And the journal keeps appending cleanly after the cut.
  EXPECT_EQ(j->append(2, at(2.0), 0.0, "after"), 2u);
  EXPECT_EQ(ReportJournal::read_from(dir.path, 0).size(), 3u);
}

TEST(Journal, MidAppendCrashLosesOnlyTheUnacknowledgedRecord) {
  TempDir dir;
  {
    auto j = ReportJournal::open(dir.path, 4096, nullptr);
    ASSERT_TRUE(j.has_value());
    j->append(1, at(1.0), 0.0, "acked");
    set_crash_hook([](std::string_view p) { return p == "journal.append"; });
    EXPECT_THROW(j->append(1, at(1.0), 0.0, "torn"), SimulatedCrash);
    clear_crash_hook();
  }
  std::size_t truncated = 0;
  auto j = ReportJournal::open(dir.path, 4096, &truncated);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(truncated, 1u);
  EXPECT_EQ(j->next_seq(), 1u);  // only the acknowledged record survives
  const auto recs = ReportJournal::read_from(dir.path, 0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].payload, "acked");
}

TEST(Journal, FailedFsyncIsCutBackAndLaterRecordsSurviveReopen) {
  const auto fsync_fails = [](std::string_view p) {
    return p == "journal.fsync_fail";
  };
  TempDir dir;
  {
    auto j = ReportJournal::open(dir.path, /*segment_records=*/2, nullptr);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->append(1, at(1.0), 0.0, "r0"), 0u);
    EXPECT_EQ(j->append(1, at(1.0), 0.0, "r1"), 1u);
    // The record's bytes reach the file but its fsync fails: seq 2 is not
    // acknowledged, once as the first record of a fresh segment and once
    // behind an acknowledged record in it.
    set_crash_hook(fsync_fails);
    EXPECT_EQ(j->append(2, at(2.0), 0.0, "lost-a"), 2u);
    clear_crash_hook();
    EXPECT_EQ(j->next_seq(), 2u);
    EXPECT_EQ(j->append(2, at(2.0), 0.0, "r2"), 2u);
    set_crash_hook(fsync_fails);
    EXPECT_EQ(j->append(3, at(3.0), 0.0, "lost-b"), 3u);
    clear_crash_hook();
    EXPECT_EQ(j->next_seq(), 3u);
    for (int i = 3; i < 6; ++i) {
      std::string payload = "r";
      payload += std::to_string(i);
      EXPECT_EQ(j->append(3, at(3.0), 0.0, payload),
                static_cast<std::uint64_t>(i));
    }
  }
  // Every acknowledged record, and none of the failed ones, is on disk.
  std::size_t truncated = 0;
  auto j = ReportJournal::open(dir.path, 2, &truncated);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(truncated, 0u);
  EXPECT_EQ(j->next_seq(), 6u);
  const auto recs = ReportJournal::read_from(dir.path, 0);
  ASSERT_EQ(recs.size(), 6u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq, i);
    EXPECT_EQ(recs[i].payload, "r" + std::to_string(i));
  }
}

TEST(Journal, HeaderlessNewestSegmentIsDropped) {
  TempDir dir;
  {
    auto j = ReportJournal::open(dir.path, /*segment_records=*/2, nullptr);
    ASSERT_TRUE(j.has_value());
    for (int i = 0; i < 4; ++i) j->append(1, at(1.0), 0.0, "x");
  }
  // Crash between rotation's file creation and header flush: an empty
  // segment file whose header never hit the disk.
  ASSERT_TRUE(util::write_file_atomic(
      dir.path + "/wal-00000000000000000004.grtwal", ""));
  auto j = ReportJournal::open(dir.path, 2, nullptr);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->next_seq(), 4u);
  EXPECT_EQ(j->append(2, at(2.0), 0.0, "resumed"), 4u);
}

TEST(Journal, ReadFromFiltersBySeq) {
  TempDir dir;
  auto j = ReportJournal::open(dir.path, 2, nullptr);
  ASSERT_TRUE(j.has_value());
  for (int i = 0; i < 5; ++i) {
    std::string payload = "p";
    payload += std::to_string(i);
    j->append(1, at(1.0), 0.0, payload);
  }
  const auto tail = ReportJournal::read_from(dir.path, 3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 3u);
  EXPECT_EQ(tail[1].payload, "p4");
}

}  // namespace
}  // namespace gretel::persist
