// AnomalyDetector checkpoint blob (the GRTCKP01 "analyzer" section's
// detector part): save → load → save is byte-identical, the layout older
// checkpoints were written in still loads (a u32 tracker count of 1 before
// the tracker blob, two retired stats words written as 0), and a blob with
// any other tracker count or a torn tail is rejected with the detector left
// at its constructed state.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gretel/anomaly_detector.h"
#include "gretel/training.h"
#include "net/capture.h"
#include "tempest/workload.h"

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

// Streaming-mode detector (sketches on, orphan reaper armed) so the saved
// state carries every tracker section.
std::unique_ptr<AnomalyDetector> make_detector() {
  auto& e = env();
  GretelConfig config;
  config.fp_max = e.training.fp_max;
  config.p_rate = 150.0;
  config.orphan_timeout_seconds = 5.0;
  auto detector = std::make_unique<AnomalyDetector>(
      &e.training.db, &e.catalog.apis(), config, nullptr);
  detector->latency().set_sketch_enabled(true);
  return detector;
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

}  // namespace
}  // namespace gretel::core
