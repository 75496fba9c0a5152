// Checkpoint blobs of the GRTCKP02 "analyzer" body.  The latency tracker
// blob is pinned by a hand-written copy and restores its learned state;
// the AnomalyDetector blob is the tracker blob followed by the nine Stats
// counters, and the Analyzer blob adds the stale-series total.  save →
// load → save is byte-identical, and a blob cut at any byte is rejected
// with the object left at its constructed state.
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

// The detector blob is the tracker blob, then the nine counters.
TEST(DetectorCheckpoint, BlobIsTrackerBlobThenNineStats) {
  const auto& saved = trained_blob();
  auto restored = make_detector();
  std::string_view in(saved);
  ASSERT_TRUE(restored->load_state(in));
  const auto& s = restored->stats();
  EXPECT_GT(s.events, 0u);
  std::string expected;
  restored->latency().save_state(expected);
  for (const std::uint64_t word :
       {s.events, s.rest_errors, s.rpc_errors, s.operational_reports,
        s.performance_reports, s.suppressed_triggers, s.losses_recorded,
        s.degraded_reports, s.forced_reports})
    util::put_u64(expected, word);
  EXPECT_EQ(saved, expected);
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

// --- LatencyTracker blob ---

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

// Hand-written tracker blob holding the warm-up state.
std::string tracker_blob() {
  detect::LevelShiftDetector detector;
  for (int i = 0; i < kWarmup; ++i) {
    const double t_ms = 1000.0 * i + warmup_latency_ms(i);
    detector.observe(at_ms(t_ms).to_seconds(),
                     (at_ms(t_ms) - at_ms(1000.0 * i)).to_millis());
  }
  std::string out;
  util::put_u32(out, 1);  // pending REST requests
  util::put_u32(out, kPendingConn);
  util::put_i64(out, at_ms(1000.0 * kWarmup).nanos());
  util::put_u32(out, 0);  // pending RPC requests
  util::put_u32(out, 1);  // APIs
  util::put_u16(out, kApi.value());
  detector.save_state(out);
  util::put_u32(out, 0);        // in-flight FIFO
  util::put_u64(out, kWarmup);  // samples
  util::put_u32(out, 0);        // observes since sweep
  for (int g = 0; g < 4; ++g) util::put_u64(out, 0);  // guard counters
  return out;
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
  EXPECT_EQ(save_tracker(tracker), tracker_blob());
}

TEST(DetectorCheckpoint, TrackerBlobRestoresLearnedState) {
  detect::LatencyTracker uninterrupted;
  warm_up(uninterrupted);
  const auto expected = continuation_alarms(uninterrupted);
  ASSERT_EQ(expected.size(), 2u);  // the shift up and the shift back

  const std::string blob = tracker_blob();
  detect::LatencyTracker restored;
  std::string_view in(blob);
  ASSERT_TRUE(restored.load_state(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(save_tracker(restored), blob);
  EXPECT_EQ(restored.samples(), static_cast<std::uint64_t>(kWarmup));
  EXPECT_EQ(restored.pending(), 1u);
  EXPECT_EQ(continuation_alarms(restored), expected);
}

TEST(DetectorCheckpoint, TornTrackerBlobLeavesTrackerReset) {
  const std::string fresh = save_tracker(detect::LatencyTracker());
  const std::string blob = tracker_blob();
  // Every cut, which covers each byte of every live section.
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    detect::LatencyTracker tracker;
    warm_up(tracker);
    std::string_view in(blob.data(), keep);
    ASSERT_FALSE(tracker.load_state(in));
    EXPECT_EQ(save_tracker(tracker), fresh);
    EXPECT_EQ(tracker.samples(), 0u);
    EXPECT_EQ(tracker.pending(), 0u);
  }
}

// --- Analyzer blob ---

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

// A warmed-up analyzer's blob with the stale-series total set to `stale`.
// Warming the tracker directly leaves the detector's counters at 0, so the
// blob is the tracker blob, nine zero counters and the stale total.
std::string warm_analyzer_blob(std::uint64_t stale) {
  auto analyzer = make_analyzer();
  warm_up(analyzer->latency());
  std::string blob = save_tracker(analyzer->latency());
  for (int i = 0; i < 9; ++i) util::put_u64(blob, 0);  // counters
  EXPECT_EQ(save_analyzer(*analyzer), blob + std::string(8, '\0'));
  util::put_u64(blob, stale);
  return blob;
}

TEST(AnalyzerCheckpoint, BlobRestoresLatencyStateAndStaleSeries) {
  detect::LatencyTracker warmed;
  warm_up(warmed);
  detect::LatencyTracker uninterrupted;
  warm_up(uninterrupted);
  const auto expected = continuation_alarms(uninterrupted);
  ASSERT_EQ(expected.size(), 2u);

  const std::string blob = warm_analyzer_blob(7);
  auto restored = make_analyzer();
  std::string_view in(blob);
  ASSERT_TRUE(restored->load_state(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(save_analyzer(*restored), blob);
  EXPECT_EQ(restored->stale_series(), 7u);
  EXPECT_EQ(save_tracker(restored->latency()), save_tracker(warmed));
  EXPECT_EQ(continuation_alarms(restored->latency()), expected);
}

TEST(AnalyzerCheckpoint, TornBlobLeavesAnalyzerReset) {
  const std::string fresh = save_analyzer(*make_analyzer());
  const std::string blob = warm_analyzer_blob(7);
  auto analyzer = make_analyzer();
  // Every cut, which covers each byte of the tracker, counter and
  // stale-series words.
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    warm_up(analyzer->latency());
    std::string_view in(blob.data(), keep);
    ASSERT_FALSE(analyzer->load_state(in));
    EXPECT_EQ(save_analyzer(*analyzer), fresh);
    EXPECT_EQ(analyzer->latency().samples(), 0u);
  }
}

}  // namespace
}  // namespace gretel::core
