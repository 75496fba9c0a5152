// StreamAnalyzer contract tests: an unstressed stream reproduces the batch
// diagnosis set exactly, tick cadence cannot change reports, the shed
// policies account every loss, the credit gate has hysteresis, overdue
// reports are deadline-forced, and idle streams still reap orphans.
// (Suite names Stream* are in the ASan CI filter.)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gretel/json_export.h"
#include "gretel/training.h"
#include "net/chaos.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"

namespace gretel::stream {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training = core::learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

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

std::string batch_json(const std::vector<net::WireRecord>& recs) {
  auto& e = env();
  core::Analyzer analyzer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options());
  for (const auto& r : recs) analyzer.on_wire(r);
  analyzer.finish();
  return core::to_json(analyzer.diagnoses(), e.catalog.apis(),
                       e.training.db);
}

// Streams the capture in arrival order and returns the emitted diagnoses
// serialized exactly like the batch path.
std::string stream_json(const std::vector<net::WireRecord>& recs,
                        const StreamOptions& stream) {
  auto& e = env();
  std::vector<core::Diagnosis> emitted;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(),
                          [&](const StreamReport& r) {
                            emitted.push_back(r.diagnosis);
                          },
                          stream);
  for (const auto& r : recs) {
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  streamer.finish();
  return core::to_json(emitted, e.catalog.apis(), e.training.db);
}

// An unstressed stream (no shedding, deadline forcing off) must reproduce
// the batch diagnosis set byte-for-byte: ticks only change *when* work
// runs, never what it concludes.
TEST(StreamAnalyzer, UnstressedStreamMatchesBatchExactly) {
  const auto recs = record_workload(10, 3, 0x5EED01);
  StreamOptions stream;
  stream.max_report_delay_s = 0.0;  // no deadline forcing
  const auto reference = batch_json(recs);
  EXPECT_NE(reference, "[]") << "a run with no reports proves nothing";
  EXPECT_EQ(reference, stream_json(recs, stream));
}

TEST(StreamAnalyzer, TickCadenceDoesNotChangeReports) {
  const auto recs = record_workload(8, 2, 0x5EED02);
  StreamOptions fast;
  fast.max_report_delay_s = 0.0;
  fast.tick_ms = 100.0;
  auto slow = fast;
  slow.tick_ms = 997.0;
  EXPECT_EQ(stream_json(recs, fast), stream_json(recs, slow));
}

TEST(StreamAnalyzer, DropOldestShedsWithExactAccounting) {
  auto& e = env();
  const auto recs = record_workload(8, 2, 0x5EED03);
  ASSERT_GT(recs.size(), 64u);
  StreamOptions stream;
  stream.source_ring = 8;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(), {}, stream);
  // Offer everything without ever advancing the watermark: nothing drains,
  // so all but the newest 8 records must be shed — each loss accounted.
  for (const auto& r : recs) streamer.offer(r);
  EXPECT_TRUE(streamer.gate_closed());
  EXPECT_EQ(streamer.credits(), 0u);
  EXPECT_EQ(streamer.queued(), 8u);
  const auto& c = streamer.counters();
  EXPECT_EQ(c.offered, recs.size());
  EXPECT_EQ(c.shed, recs.size() - 8);
  EXPECT_GE(c.shed_episodes, 1u);
  streamer.finish();
  EXPECT_EQ(c.offered, c.ingested + c.shed);
  EXPECT_EQ(streamer.queued(), 0u);
  // Every shed record reappears as a window-loss annotation.
  EXPECT_EQ(streamer.health().losses_recorded, c.shed);
}

TEST(StreamAnalyzer, DropNewestRefusesTheFreshRecord) {
  auto& e = env();
  const auto recs = record_workload(8, 2, 0x5EED03);
  ASSERT_GT(recs.size(), 16u);
  StreamOptions stream;
  stream.source_ring = 4;
  stream.shed_policy = StreamShedPolicy::DropNewest;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(), {}, stream);
  std::size_t accepted = 0;
  for (const auto& r : recs) accepted += streamer.offer(r) ? 1 : 0;
  EXPECT_EQ(accepted, 4u);  // the first four; everything after is refused
  EXPECT_EQ(streamer.queued(), 4u);
  EXPECT_EQ(streamer.counters().shed, recs.size() - 4);
  streamer.finish();
  EXPECT_EQ(streamer.counters().offered,
            streamer.counters().ingested + streamer.counters().shed);
  EXPECT_EQ(streamer.health().losses_recorded, streamer.counters().shed);
}

TEST(StreamAnalyzer, CreditGateReopensAfterDrain) {
  auto& e = env();
  const auto recs = record_workload(8, 2, 0x5EED03);
  StreamOptions stream;
  stream.source_ring = 8;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(), {}, stream);
  for (std::size_t i = 0; i < 9 && i < recs.size(); ++i)
    streamer.offer(recs[i]);
  ASSERT_TRUE(streamer.gate_closed());
  EXPECT_EQ(streamer.credits(), 0u);
  // One tick drains the ring past half occupancy: the gate reopens and
  // full credit comes back.
  streamer.advance_to(recs[8].ts + SimDuration::seconds(1));
  EXPECT_FALSE(streamer.gate_closed());
  EXPECT_EQ(streamer.credits(), 8u);
}

TEST(StreamAnalyzer, DeadlineForcesReportsWhenStreamGoesQuiet) {
  auto& e = env();
  // A lone faulty operation with almost no background: the trigger's
  // future half-window never fills after the capture ends, so only the
  // deadline can emit it before finish().
  const auto recs = record_workload(1, 1, 0x5EED04);
  ASSERT_FALSE(recs.empty());
  StreamOptions stream;
  stream.max_report_delay_s = 1.0;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          base_options(), {}, stream);
  for (const auto& r : recs) {
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  // Advance well past the deadline with zero traffic.
  streamer.advance_to(recs.back().ts + SimDuration::seconds(10));
  EXPECT_GE(streamer.analyzer().detector_stats().forced_reports, 1u);
  EXPECT_GE(streamer.counters().reports, 1u);
  for (const auto& r : streamer.recent_reports())
    EXPECT_GT(r.tick, 0u) << "report waited for finish()";
}

TEST(StreamAnalyzer, IdleStreamStillReapsOrphans) {
  auto& e = env();
  auto recs = record_workload(8, 2, 0x5EED05);
  // Drop a slice of frames so some responses never arrive and their
  // requests linger in the pending tables.
  net::ChaosConfig chaos;
  chaos.seed = 0xD20;
  chaos.drop_rate = 0.2;
  std::vector<net::WireRecord> degraded;
  net::ChaosTap tap(chaos,
                    [&](const net::WireRecord& r) { degraded.push_back(r); });
  for (const auto& r : recs) tap.on_record(r);
  tap.finish();

  auto opt = base_options();
  opt.config.orphan_timeout_seconds = 5.0;
  StreamAnalyzer streamer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          opt);
  for (const auto& r : degraded) {
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  // Traffic stops.  Requests from the last 5 s whose responses were
  // dropped are still pending — the observe-cadence sweep cannot run with
  // no events flowing, so only the tick-driven sweep can reclaim them.
  const auto pending_before = streamer.footprint().pending_requests;
  ASSERT_GT(pending_before, 0u);
  const auto reaped_before = streamer.health().orphans_reaped;
  streamer.advance_to(degraded.back().ts + SimDuration::seconds(30));
  EXPECT_EQ(streamer.footprint().pending_requests, 0u);
  EXPECT_GT(streamer.health().orphans_reaped, reaped_before);
}

}  // namespace
}  // namespace gretel::stream
