// ReplayEngine tests: the sink sees the capture exactly as recorded, and
// timestamp regressions are counted, never repaired.
#include "net/replay.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gretel::net {
namespace {

WireRecord record_at(std::int64_t ms, int tag) {
  WireRecord r;
  r.ts = util::SimTime(ms * 1000000LL);
  r.src_node = wire::NodeId(1);
  r.dst_node = wire::NodeId(2);
  r.conn_id = static_cast<std::uint32_t>(tag);
  std::string bytes = "r";
  bytes += std::to_string(tag);
  r.bytes = std::move(bytes);
  return r;
}

std::vector<WireRecord> fed(const std::vector<WireRecord>& records,
                            ReplayReport* report) {
  std::vector<WireRecord> out;
  *report = ReplayEngine::replay(
      records, [&out](const WireRecord& rec) { out.push_back(rec); });
  return out;
}

TEST(Replay, AcceptFeedsAsIsAndCountsRegressions) {
  // Timestamps (ms): 10, 30, 20, 40, 5, 50 — two regressions (20 and 5)
  // against the running maximum.
  const std::vector<WireRecord> records = {
      record_at(10, 0), record_at(30, 1), record_at(20, 2),
      record_at(40, 3), record_at(5, 4),  record_at(50, 5)};
  ReplayReport report;
  const auto out = fed(records, &report);

  ASSERT_EQ(out.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[i].bytes, records[i].bytes);
  }
  EXPECT_EQ(report.records, records.size());
  EXPECT_EQ(report.wire_bytes, 12u);
  EXPECT_EQ(report.non_monotonic, 2u);
}

// Replay has one timestamp policy — feed as captured — so "every policy"
// is that one.
TEST(Replay, MonotoneCaptureIsUntouchedByEveryPolicy) {
  const std::vector<WireRecord> records = {record_at(1, 0), record_at(2, 1),
                                           record_at(3, 2)};
  ReplayReport report;
  const auto out = fed(records, &report);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].bytes, records[i].bytes);
  }
  EXPECT_EQ(report.non_monotonic, 0u);
}

}  // namespace
}  // namespace gretel::net
