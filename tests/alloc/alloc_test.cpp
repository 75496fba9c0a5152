// Steady-state heap allocations of the per-record path.
//
// A counting global operator new (this binary only) measures what one pass
// over a fault-free simulator capture allocates once earlier passes have
// warmed every table, ring and arena: through Analyzer::on_wire (decode +
// ingest) and through StreamAnalyzer::offer + advance_to (source ring,
// drain, ticks).  The capture has the real record shape — payload
// identifiers on every message and RPC error replies — and each pass gets
// fresh connection and message ids and later timestamps, so tables keyed
// by them see new keys every pass, as a live tap does.  Passes are shifted
// by whole seconds, so each tick of a pass queues the same records as the
// same tick of the pass before: the steady state in which every reused
// source-ring slot already holds a buffer as large as its next record.
//
// Detection is counted apart, on the windows of a faulty capture: once
// its scratch has grown to the largest window, OperationDetector::detect
// allocates only the result's matched set.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/op_detector.h"
#include "gretel/training.h"
#include "net/capture.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "wire/amqp_codec.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gretel {
namespace {

using util::SimDuration;
using util::SimTime;

// Allocations made while `fn` runs.
template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training = core::learn_fingerprints(catalog, deployment);

  core::Analyzer::Options options() const {
    core::Analyzer::Options opt;
    opt.config.fp_max = training.fp_max;
    opt.config.p_rate = 150.0;
    return opt;
  }
};

Env& env() {
  static Env e;
  return e;
}

// Passes of one fault-free capture.  Every 5th RPC reply carries an error
// payload (counted by the detector, never a trigger on its own).  Pass k
// shifts connection ids, message ids and timestamps past pass k-1's.
class Passes {
 public:
  Passes() {
    tempest::WorkloadSpec spec;
    spec.concurrent_tests = 40;
    spec.faults = 0;
    spec.seed = 1;
    const auto w = tempest::make_parallel_workload(env().catalog, spec);
    stack::WorkflowExecutor executor(&env().deployment, &env().catalog.apis(),
                                     &env().catalog.infra(), 77);
    base_ = executor.execute(w.launches);
    std::size_t replies = 0;
    for (auto& r : base_) {
      max_conn_ = std::max(max_conn_, r.conn_id);
      if (!r.is_amqp) continue;
      const auto view = wire::parse_amqp_frame_view(r.bytes);
      if (!view) continue;
      max_msg_ = std::max(max_msg_, view->msg_id);
      if (view->type == wire::AmqpFrameType::Deliver && ++replies % 5 == 0) {
        auto frame = owning(*view);
        frame.payload = wire::make_rpc_error_payload("RemoteError", "boom");
        r.bytes = wire::serialize(frame);
        ++rpc_errors_;
      }
    }
    // Whole seconds, so every pass lands on the stream's tick grid the same
    // way and its records fill the same source-ring slots.
    span_ = SimDuration::seconds(
        static_cast<std::int64_t>(
            (base_.back().ts - base_.front().ts).to_seconds()) +
        5);
  }

  std::vector<net::WireRecord> pass(std::uint64_t k) const {
    std::vector<net::WireRecord> out = base_;
    for (auto& r : out) {
      r.ts = r.ts + SimDuration::nanos(span_.count() *
                                       static_cast<std::int64_t>(k));
      if (!r.is_amqp) {
        r.conn_id += static_cast<std::uint32_t>(k * (max_conn_ + 1));
        continue;
      }
      auto frame = owning(*wire::parse_amqp_frame_view(r.bytes));
      frame.msg_id += k * (max_msg_ + 1);
      r.bytes = wire::serialize(frame);
    }
    return out;
  }

  const std::vector<net::WireRecord>& base() const { return base_; }
  std::size_t rpc_errors() const { return rpc_errors_; }

 private:
  static wire::AmqpFrame owning(const wire::AmqpFrameView& v) {
    wire::AmqpFrame f;
    f.type = v.type;
    f.channel = v.channel;
    f.routing_key = std::string(v.routing_key);
    f.method_name = std::string(v.method_name);
    f.msg_id = v.msg_id;
    f.correlation_id = v.correlation_id;
    f.payload = std::string(v.payload);
    return f;
  }

  std::vector<net::WireRecord> base_;
  std::uint32_t max_conn_ = 0;
  std::uint64_t max_msg_ = 0;
  std::size_t rpc_errors_ = 0;
  SimDuration span_;
};

const Passes& passes() {
  static Passes p;
  return p;
}

// Warm-up passes before the counted one: enough for the stream's in-flight
// FIFO to reach the largest it ever grows.  It compacts past 2 × pending +
// 64 entries, and pending never exceeds inflight_cap, so 3 × (inflight_cap
// + 64) requests are always enough.
constexpr std::uint64_t kWarmupPasses = 6;

TEST(SteadyStateAllocs, CaptureHasTheRealRecordShape) {
  const auto& base = passes().base();
  ASSERT_FALSE(base.empty());
  std::size_t with_identifiers = 0;
  for (const auto& r : base) with_identifiers += !r.identifiers.empty();
  EXPECT_EQ(with_identifiers, base.size());
  EXPECT_GT(passes().rpc_errors(), 10u);
  std::size_t requests = 0;
  for (const auto& r : base) {
    requests += r.is_amqp ? wire::parse_amqp_frame_view(r.bytes)->type ==
                                wire::AmqpFrameType::Publish
                          : !r.bytes.starts_with("HTTP/");
  }
  EXPECT_GT(kWarmupPasses * requests,
            3 * (stream::StreamOptions{}.inflight_cap + 64));
}

TEST(SteadyStateAllocs, AnalyzerOnWireAllocatesNothing) {
  core::Analyzer analyzer(&env().training.db, &env().catalog.apis(),
                          &env().deployment, env().options());
  for (std::uint64_t k = 0; k < kWarmupPasses; ++k) {
    for (const auto& r : passes().pass(k)) analyzer.on_wire(r);
  }
  const auto measured = passes().pass(kWarmupPasses);
  const auto events0 = analyzer.detector_stats().events;
  const auto rpc_errors0 = analyzer.detector_stats().rpc_errors;

  const auto allocs = count_allocs([&] {
    for (const auto& r : measured) analyzer.on_wire(r);
  });

  EXPECT_EQ(allocs, 0u);
  // Not vacuous: every record was decoded and ingested, the RPC errors
  // were seen, and nothing reported.
  EXPECT_EQ(analyzer.detector_stats().events - events0, measured.size());
  EXPECT_EQ(analyzer.detector_stats().rpc_errors - rpc_errors0,
            passes().rpc_errors());
  EXPECT_EQ(analyzer.tap_stats().unknown_api, 0u);
  EXPECT_EQ(analyzer.tap_stats().decode_failures, 0u);
  EXPECT_TRUE(analyzer.diagnoses().empty());
}

TEST(SteadyStateAllocs, StreamOfferAndAdvanceAllocateNothing) {
  std::uint64_t reports = 0;
  stream::StreamAnalyzer sa(
      &env().training.db, &env().catalog.apis(), &env().deployment,
      env().options(), [&](const stream::StreamReport&) { ++reports; });
  const auto run = [&](const std::vector<net::WireRecord>& records) {
    for (const auto& r : records) {
      sa.advance_to(r.ts);
      sa.offer(r);
    }
    // One more tick drains what the last records left queued.
    sa.advance_to(records.back().ts + SimDuration::seconds(1));
  };
  for (std::uint64_t k = 0; k < kWarmupPasses; ++k) run(passes().pass(k));
  const auto measured = passes().pass(kWarmupPasses);
  const auto ingested0 = sa.counters().ingested;

  const auto allocs = count_allocs([&] { run(measured); });

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sa.counters().ingested - ingested0, measured.size());
  EXPECT_EQ(sa.counters().shed, 0u);
  EXPECT_EQ(sa.queued(), 0u);
  EXPECT_EQ(reports, 0u);
  EXPECT_EQ(sa.counters().reports, 0u);
}

TEST(SteadyStateAllocs, DetectAllocatesOnlyTheMatchedSet) {
  // A faulty capture, decoded into events.
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 40;
  spec.faults = 8;
  spec.seed = 3;
  const auto w = tempest::make_parallel_workload(env().catalog, spec);
  stack::WorkflowExecutor executor(&env().deployment, &env().catalog.apis(),
                                   &env().catalog.infra(), 78);
  net::CaptureTap tap(&env().catalog.apis(),
                      env().deployment.service_by_port());
  std::vector<wire::Event> events;
  for (const auto& r : executor.execute(w.launches)) {
    if (auto ev = tap.decode(r)) events.push_back(*ev);
  }

  // One window per REST error, centred on it as the detector freezes it.
  const auto config = env().options().config;
  const std::size_t half = config.alpha() / 2;
  struct Fault {
    core::WindowColumns cols;
    std::size_t index = 0;
    wire::ApiId api;
  };
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].is_error() || events[i].kind != wire::ApiKind::Rest)
      continue;
    const std::size_t lo = i > half ? i - half : 0;
    const std::size_t hi = std::min(i + half, events.size());
    Fault f;
    f.cols.build(std::span<const wire::Event>(events.data() + lo, hi - lo));
    f.index = i - lo;
    f.api = events[i].api;
    faults.push_back(std::move(f));
  }
  ASSERT_GE(faults.size(), 8u);

  core::OperationDetector det(&env().training.db, &env().catalog.apis(),
                              config);
  for (const bool truncate : {true, false}) {
    for (const auto& f : faults) det.detect(f.cols, f.index, f.api, truncate);
  }
  std::size_t matched_windows = 0;
  for (const bool truncate : {true, false}) {
    for (const auto& f : faults) {
      core::DetectionResult result;
      const auto allocs = count_allocs([&] {
        result = det.detect(f.cols, f.index, f.api, truncate);
      });
      // The matched set is one vector: one allocation when non-empty.
      EXPECT_EQ(allocs, result.matched.empty() ? 0u : 1u)
          << "truncate " << truncate << " fault row " << f.index;
      matched_windows += !result.matched.empty();
    }
  }
  // Not vacuous: most windows matched an operation.
  EXPECT_GT(matched_windows, faults.size());
}

}  // namespace
}  // namespace gretel
