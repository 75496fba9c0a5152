// AnomalyDetector checkpoint blob (the GRTCKP01 "analyzer" section's
// detector part): save → load → save is byte-identical, the layout older
// checkpoints were written in still loads (a u32 tracker count of 1 before
// the tracker blob, two retired stats words written as 0), and a blob with
// any other tracker count or a torn tail is rejected with the detector left
// at its constructed state.  Words that repeat another object's count are
// written from that object, not from the loaded blob.  The latency tracker blob inside it still loads
// in the layout that carried a P² sketch and the raw latency series, and
// the analyzer blob around it in the layout that carried the per-resource
// level-shift stream.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/anomaly_detector.h"
#include "gretel/training.h"
#include "net/capture.h"
#include "tempest/workload.h"
#include "util/binio.h"

namespace gretel::core {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  TrainingReport training = learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

// Orphan reaper armed, so the saved state carries every tracker section.
std::unique_ptr<AnomalyDetector> make_detector() {
  auto& e = env();
  GretelConfig config;
  config.fp_max = e.training.fp_max;
  config.p_rate = 150.0;
  config.orphan_timeout_seconds = 5.0;
  return std::make_unique<AnomalyDetector>(&e.training.db, &e.catalog.apis(),
                                           config, nullptr);
}

std::string save(const std::unique_ptr<AnomalyDetector>& detector) {
  std::string out;
  detector->save_state(out);
  return out;
}

// State of a detector that has analyzed a faulty capture.
const std::string& trained_blob() {
  static const std::string blob = [] {
    auto& e = env();
    tempest::WorkloadSpec spec;
    spec.concurrent_tests = 10;
    spec.faults = 2;
    spec.seed = 71;
    spec.window = SimDuration::seconds(30);
    const auto w = make_parallel_workload(e.catalog, spec);
    stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                     &e.catalog.infra(), 710);
    const auto records = executor.execute(w.launches);
    net::CaptureTap tap(&e.catalog.apis(), e.deployment.service_by_port());
    auto detector = make_detector();
    for (const auto& r : records) {
      if (auto event = tap.decode(r)) detector->on_event(std::move(*event));
    }
    detector->flush();
    EXPECT_GT(detector->stats().operational_reports, 0u);
    EXPECT_GT(detector->latency().samples(), 0u);
    return save(detector);
  }();
  return blob;
}

TEST(DetectorCheckpoint, SaveLoadSaveIsByteIdentical) {
  const auto& saved = trained_blob();
  auto restored = make_detector();
  std::string_view in(saved);
  ASSERT_TRUE(restored->load_state(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(save(restored), saved);
  EXPECT_GT(restored->stats().events, 0u);
}

TEST(DetectorCheckpoint, LayoutMatchesOneShardBlob) {
  const auto& saved = trained_blob();
  ASSERT_GT(saved.size(), 4u + 18 * 8);
  // Big-endian u32 tracker count.
  EXPECT_EQ(saved.substr(0, 4), std::string("\0\0\0\1", 4));
  // The tail is 18 u64 words: loss count, 7 stats, the 2 retired words,
  // 8 more stats.
  const auto retired = saved.substr(saved.size() - 18 * 8 + 8 * 8, 2 * 8);
  EXPECT_EQ(retired, std::string(16, '\0'));
}

TEST(DetectorCheckpoint, OtherTrackerCountIsRejected) {
  const auto constructed = save(make_detector());
  auto blob = trained_blob();
  blob[3] = 2;
  auto detector = make_detector();
  std::string_view in(blob);
  EXPECT_FALSE(detector->load_state(in));
  EXPECT_EQ(save(detector), constructed);
}

TEST(DetectorCheckpoint, TornBlobLeavesConstructedState) {
  const auto constructed = save(make_detector());
  const auto& saved = trained_blob();
  // Inside the tracker blob, inside the stats words, and the last byte.
  for (const std::size_t keep :
       {saved.size() / 2, saved.size() - 5 * 8, saved.size() - 1}) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    auto detector = make_detector();
    std::string_view in(saved.data(), keep);
    EXPECT_FALSE(detector->load_state(in));
    EXPECT_EQ(save(detector), constructed);
    EXPECT_EQ(detector->stats().events, 0u);
  }
}

// The stale-freeze word repeats the dual buffer's count, which restarts
// with the new window: a restored detector writes the buffer's 0 there,
// whatever the loaded blob held.
TEST(DetectorCheckpoint, StaleFreezeWordIsWrittenFromTheBuffer) {
  const auto& saved = trained_blob();
  // Word 13 of the 18-word tail.
  const std::size_t at = saved.size() - 18 * 8 + 13 * 8;
  std::string blob = saved;
  std::string word;
  util::put_u64(word, 3);
  blob.replace(at, 8, word);
  auto restored = make_detector();
  std::string_view in(blob);
  ASSERT_TRUE(restored->load_state(in));
  EXPECT_TRUE(in.empty());
  const auto resaved = save(restored);
  ASSERT_EQ(resaved.size(), blob.size());
  EXPECT_EQ(resaved.substr(at, 8), std::string(8, '\0'));
  EXPECT_EQ(resaved.substr(0, at), blob.substr(0, at));
  EXPECT_EQ(resaved.substr(at + 8), blob.substr(at + 8));
}

// --- LatencyTracker blob: the retired sketch and series sections ---

constexpr wire::ApiId kApi(3);
constexpr std::uint32_t kPendingConn = 500;

wire::EventHeader rest_header(std::uint32_t conn, wire::Direction dir,
                              SimTime ts) {
  wire::EventHeader h;
  h.ts = ts;
  h.conn_id = conn;
  h.api = kApi;
  h.kind = wire::ApiKind::Rest;
  h.dir = dir;
  h.status = dir == wire::Direction::Response ? 200 : 0;
  return h;
}

SimTime at_ms(double ms) {
  return SimTime::epoch() +
         SimDuration::nanos(static_cast<std::int64_t>(ms * 1e6));
}

// Warm-up: 40 exchanges at ~10 ms on one API (learned baseline), then one
// request left pending.
constexpr int kWarmup = 40;
double warmup_latency_ms(int i) { return 10.0 + (i % 3) * 0.4; }

void warm_up(detect::LatencyTracker& tracker) {
  for (int i = 0; i < kWarmup; ++i) {
    const double t_ms = 1000.0 * i;
    tracker.observe(rest_header(i + 1, wire::Direction::Request, at_ms(t_ms)));
    tracker.observe(rest_header(i + 1, wire::Direction::Response,
                                at_ms(t_ms + warmup_latency_ms(i))));
  }
  tracker.observe(rest_header(kPendingConn, wire::Direction::Request,
                              at_ms(1000.0 * kWarmup)));
}

// Hand-written tracker blob holding the warm-up state.  With no retired
// content it is the current layout; with a sketch section, series points
// and a series-trim count it is the layout that still carried them.
std::string tracker_blob(std::string_view sketch, std::uint32_t points,
                         std::uint64_t trimmed) {
  detect::LevelShiftDetector detector;
  for (int i = 0; i < kWarmup; ++i) {
    const double t_ms = 1000.0 * i + warmup_latency_ms(i);
    detector.observe(at_ms(t_ms).to_seconds(),
                     (at_ms(t_ms) - at_ms(1000.0 * i)).to_millis());
  }
  std::string det;
  detector.save_state(det);

  std::string out;
  util::put_u32(out, 1);  // pending REST requests
  util::put_u32(out, kPendingConn);
  util::put_i64(out, at_ms(1000.0 * kWarmup).nanos());
  util::put_u32(out, 0);  // pending RPC requests
  util::put_u32(out, 1);  // APIs
  util::put_u16(out, kApi.value());
  util::put_bytes(out, "level-shift");
  util::put_bytes(out, det);
  util::put_bytes(out, sketch);
  util::put_u32(out, points);
  for (std::uint32_t p = 0; p < points; ++p) {
    util::put_f64(out, static_cast<double>(p));
    util::put_f64(out, warmup_latency_ms(static_cast<int>(p)));
  }
  util::put_u32(out, 0);        // in-flight FIFO
  util::put_u64(out, kWarmup);  // samples
  util::put_u32(out, 0);        // observes since sweep
  for (int g = 0; g < 4; ++g) util::put_u64(out, 0);  // guard counters
  util::put_u64(out, trimmed);
  return out;
}

// Stand-in bytes for the P² sketch: the loader skips them unread.
const std::string kSketch(120, '\x5a');

std::string older_layout_blob() {
  return tracker_blob(kSketch, kWarmup, 17);
}

std::string save_tracker(const detect::LatencyTracker& tracker) {
  std::string out;
  tracker.save_state(out);
  return out;
}

using AlarmRecord = std::tuple<std::uint16_t, std::int64_t, double, double,
                               double, double, int>;

// Closes the pending request, then drives a shift to 60 ms and back.
std::vector<AlarmRecord> continuation_alarms(detect::LatencyTracker& tracker) {
  std::vector<AlarmRecord> alarms;
  const auto feed = [&](const wire::EventHeader& h) {
    const auto sample = tracker.observe(h);
    if (sample && sample->alarm) {
      const auto& a = *sample->alarm;
      alarms.emplace_back(sample->api.value(), sample->when.nanos(),
                          a.t_seconds, a.value, a.baseline, a.magnitude,
                          a.direction == detect::ShiftDirection::Up ? 1 : 0);
    }
  };
  feed(rest_header(kPendingConn, wire::Direction::Response,
                   at_ms(1000.0 * kWarmup + 11.0)));
  for (int i = 0; i < 60; ++i) {
    const double t_ms = 1000.0 * (kWarmup + 1 + i);
    const double latency = (i >= 10 && i < 35 ? 60.0 : 10.0) + (i % 2) * 0.5;
    const auto conn = static_cast<std::uint32_t>(1000 + i);
    feed(rest_header(conn, wire::Direction::Request, at_ms(t_ms)));
    feed(rest_header(conn, wire::Direction::Response, at_ms(t_ms + latency)));
  }
  return alarms;
}

TEST(DetectorCheckpoint, HandWrittenTrackerBlobMatchesSaveState) {
  detect::LatencyTracker tracker;
  warm_up(tracker);
  EXPECT_EQ(save_tracker(tracker), tracker_blob({}, 0, 0));
}

TEST(DetectorCheckpoint, OlderTrackerLayoutRestoresLearnedState) {
  detect::LatencyTracker uninterrupted;
  warm_up(uninterrupted);
  const auto expected = continuation_alarms(uninterrupted);
  ASSERT_EQ(expected.size(), 2u);  // the shift up and the shift back

  const std::string current = tracker_blob({}, 0, 0);
  const std::string older = older_layout_blob();
  ASSERT_GT(older.size(), current.size());

  detect::LatencyTracker from_current;
  std::string_view in(current);
  ASSERT_TRUE(from_current.load_state(in));
  EXPECT_TRUE(in.empty());

  detect::LatencyTracker from_older;
  in = older;
  ASSERT_TRUE(from_older.load_state(in));
  EXPECT_TRUE(in.empty());
  // The retired sections are dropped: the restored tracker saves the
  // current layout of the same learned state.
  EXPECT_EQ(save_tracker(from_older), current);
  EXPECT_EQ(from_older.samples(), static_cast<std::uint64_t>(kWarmup));
  EXPECT_EQ(from_older.pending(), 1u);

  EXPECT_EQ(continuation_alarms(from_current), expected);
  EXPECT_EQ(continuation_alarms(from_older), expected);
}

TEST(DetectorCheckpoint, TornOlderTrackerBlobLeavesTrackerReset) {
  const std::string fresh = save_tracker(detect::LatencyTracker());
  const std::string older = older_layout_blob();
  // Every cut, which covers each byte of the retired sketch bytes, the
  // series points and the series-trim word.
  for (std::size_t keep = 0; keep < older.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    detect::LatencyTracker tracker;
    warm_up(tracker);
    std::string_view in(older.data(), keep);
    ASSERT_FALSE(tracker.load_state(in));
    EXPECT_EQ(save_tracker(tracker), fresh);
    EXPECT_EQ(tracker.samples(), 0u);
    EXPECT_EQ(tracker.pending(), 0u);
  }
}

// --- Analyzer blob: the retired resource-stream section ---

std::unique_ptr<Analyzer> make_analyzer() {
  auto& e = env();
  Analyzer::Options options;
  options.config.fp_max = e.training.fp_max;
  options.config.p_rate = 150.0;
  return std::make_unique<Analyzer>(&e.training.db, &e.catalog.apis(),
                                    &e.deployment, options);
}

std::string save_analyzer(const Analyzer& analyzer) {
  std::string out;
  analyzer.save_state(out);
  return out;
}

// The analyzer blob after the detector part: the resource-stream section
// (written empty) and the stale-series total.
std::string current_tail(std::uint64_t stale) {
  std::string out;
  util::put_u32(out, 0);  // resource-stream detectors
  util::put_u32(out, 0);  // resource alarms
  util::put_u64(out, 0);  // resource samples
  util::put_u64(out, stale);
  return out;
}

// The tail in the layout that still ran a level-shift detector per (node,
// resource): two detectors with learned baselines and two alarms.
std::string parent_tail(std::uint64_t stale) {
  detect::LevelShiftDetector cpu;
  detect::LevelShiftDetector disk;
  for (int t = 0; t < 40; ++t) {
    cpu.observe(t, 20.0 + 0.1 * (t % 3));
    disk.observe(t, 5000.0 - t);
  }
  std::string out;
  util::put_u32(out, 2);
  for (const auto& [key, det] : {std::pair{0x0100u, &cpu},
                                 std::pair{0x0103u, &disk}}) {
    std::string blob;
    det->save_state(blob);
    util::put_u32(out, key);
    util::put_bytes(out, "level-shift");
    util::put_bytes(out, blob);
  }
  util::put_u32(out, 2);
  for (int i = 0; i < 2; ++i) {
    util::put_u8(out, 1);  // node
    util::put_u8(out, 0);  // CPU
    util::put_f64(out, 50.0 + i);
    util::put_f64(out, 92.0);
    util::put_f64(out, 20.0);
    util::put_f64(out, 72.0);
    util::put_u8(out, 0);  // up
  }
  util::put_u64(out, 80);  // samples
  util::put_u64(out, stale);
  return out;
}

// The detector part of a warmed-up analyzer's blob.
std::string warm_detector_part() {
  auto analyzer = make_analyzer();
  warm_up(analyzer->latency());
  const std::string saved = save_analyzer(*analyzer);
  const std::string tail = current_tail(0);
  EXPECT_EQ(saved.substr(saved.size() - tail.size()), tail);
  return saved.substr(0, saved.size() - tail.size());
}

TEST(AnalyzerCheckpoint, ParentLayoutRestoresLatencyState) {
  detect::LatencyTracker warmed;
  warm_up(warmed);
  detect::LatencyTracker uninterrupted;
  warm_up(uninterrupted);
  const auto expected = continuation_alarms(uninterrupted);
  ASSERT_EQ(expected.size(), 2u);

  const std::string detector_part = warm_detector_part();
  const std::string parent = detector_part + parent_tail(7);
  auto restored = make_analyzer();
  std::string_view in(parent);
  ASSERT_TRUE(restored->load_state(in));
  EXPECT_TRUE(in.empty());
  // The resource section is dropped: the restored analyzer saves the
  // current layout of the same learned state and stale-series total.
  EXPECT_EQ(save_analyzer(*restored), detector_part + current_tail(7));
  EXPECT_EQ(restored->stale_series(), 7u);
  EXPECT_EQ(save_tracker(restored->latency()), save_tracker(warmed));
  EXPECT_EQ(continuation_alarms(restored->latency()), expected);
}

TEST(AnalyzerCheckpoint, TornParentLayoutLeavesAnalyzerReset) {
  const std::string fresh = save_analyzer(*make_analyzer());
  const std::string parent = warm_detector_part() + parent_tail(7);
  auto analyzer = make_analyzer();
  // Every cut, which covers each byte of the detector blobs and alarm
  // records the loader skips.
  for (std::size_t keep = 0; keep < parent.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    warm_up(analyzer->latency());
    std::string_view in(parent.data(), keep);
    ASSERT_FALSE(analyzer->load_state(in));
    EXPECT_EQ(save_analyzer(*analyzer), fresh);
    EXPECT_EQ(analyzer->latency().samples(), 0u);
  }
}

}  // namespace
}  // namespace gretel::core
