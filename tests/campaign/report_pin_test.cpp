// Byte-identity pins: a few small seeded simulator captures run through
// Analyzer, and each capture's campaign::report_fingerprint digest, with
// its report count and suppressed-trigger count, must equal the line
// committed in report_digests.pin.
// A refactor that claims "reports unchanged" is checked here on every
// tier-1 run instead of by a one-off diff against the parent build.
//
// The captures use the full-size Tempest catalog and fault densities near
// Fig. 8c's densest point (about 1 fault per 100 records), so every report
// runs Algorithm 2 over a crowded window and RCA over sampled metrics.
//
// DecodeDigests pins the capture tap alone: the same five captures plus one
// damaged by net::ChaosTap (truncation, corruption, duplication and
// reordering all on) run through a net::CaptureTap, and each capture's
// TapStats counts and a digest over every decoded wire::Event must equal
// the line committed in decode_digests.pin.  A decode rewrite that claims
// "same events" is checked here, including the reject paths.
//
// PersistDigests pins the bytes a durable stream::StreamAnalyzer leaves on
// disk: for a plain session, one with a mid-stream checkpoint_now(), and a
// crash followed by restore() that continues and checkpoints twice more,
// every file left in the persistence directory (WAL segments and retained
// checkpoints, by name) and the FNV-1a 64 of its bytes must equal
// persist_digests.pin.  The digest is not the CRC-32 the formats embed, so
// an encoder or checksum rewrite cannot hide a change from it.
//
// Regenerating the pins is a deliberate step, taken only when a change is
// meant to alter reports (or decoded events):
//
//   GRETEL_UPDATE_PINS=1 build/tests/campaign_tests
//       --gtest_filter='ReportDigests.*:DecodeDigests.*:PersistDigests.*'
//
// rewrites tests/campaign/report_digests.pin, decode_digests.pin and
// persist_digests.pin in the source tree; commit them and name the changed
// captures and the reason in CHANGES.md.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/fingerprint.h"
#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "net/capture.h"
#include "net/chaos.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "util/atomic_file.h"
#include "util/hash.h"

namespace gretel::campaign {
namespace {

using util::SimDuration;
using util::SimTime;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build();
  stack::Deployment deployment = stack::Deployment::standard(3);
  core::TrainingReport training =
      core::learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

struct PinnedCapture {
  const char* name;
  int tests;
  int faults;
  long window_s;
  std::uint64_t seed;
  bool correlation_ids;
};

// Each capture is generated from its seed; the executor and monitor seeds
// are derived from it.
constexpr PinnedCapture kCaptures[] = {
    {"dense-a", 80, 60, 20, 1, false},
    {"dense-b", 80, 60, 20, 2, false},
    {"dense-c", 120, 40, 30, 3, false},
    {"sparse", 100, 8, 30, 4, false},
    {"correlated", 80, 40, 20, 5, true},
};

struct Pin {
  std::string name;
  std::string digest;
  std::size_t reports = 0;
  std::uint64_t suppressed = 0;
};

std::string pin_line(const Pin& p) {
  return p.name + " " + p.digest + " " + std::to_string(p.reports) + " " +
         std::to_string(p.suppressed);
}

std::vector<net::WireRecord> capture_records(const PinnedCapture& c) {
  auto& e = env();
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = c.tests;
  spec.faults = c.faults;
  spec.window = SimDuration::seconds(c.window_s);
  spec.seed = c.seed;
  const auto workload = tempest::make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), 1000 + c.seed);
  return executor.execute(workload.launches);
}

Pin run_capture(const PinnedCapture& c) {
  auto& e = env();
  const auto records = capture_records(c);

  core::Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  if (records.size() > 1) {
    const double span = (records.back().ts - records.front().ts).to_seconds();
    if (span > 0)
      opt.config.p_rate =
          std::max(150.0, static_cast<double>(records.size()) / span);
  }
  opt.config.use_correlation_ids = c.correlation_ids;
  core::Analyzer analyzer(&e.training.db, &e.catalog.apis(), &e.deployment,
                          opt);
  if (!records.empty()) {
    monitor::ResourceMonitor mon(&e.deployment, SimDuration::seconds(1),
                                 2000 + c.seed);
    mon.sample_range(SimTime::epoch(),
                     records.back().ts + SimDuration::seconds(3),
                     analyzer.metrics());
  }
  for (const auto& r : records) analyzer.on_wire(r);
  analyzer.finish();
  return {c.name,
          fingerprint_hex(report_fingerprint(analyzer.diagnoses(),
                                             e.catalog.apis(),
                                             e.training.db)),
          analyzer.diagnoses().size(),
          analyzer.detector_stats().suppressed_triggers};
}

std::vector<std::string> read_pin_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(std::move(line));
  }
  return lines;
}

std::vector<Pin> read_pins(const std::string& path) {
  std::vector<Pin> pins;
  for (const auto& line : read_pin_lines(path)) {
    std::istringstream fields(line);
    Pin p;
    fields >> p.name >> p.digest >> p.reports >> p.suppressed;
    pins.push_back(std::move(p));
  }
  return pins;
}

// True (after rewriting `path` with `header` and `lines`) when the run was
// asked to regenerate the pins.
bool update_pins(const std::string& path, const char* header,
                 const std::vector<std::string>& lines) {
  const char* update = std::getenv("GRETEL_UPDATE_PINS");
  if (!update || std::string(update) != "1") return false;
  std::ofstream out(path, std::ios::trunc);
  out << "# " << header << " -- written by "
      << "tests/campaign/report_pin_test.cpp\n";
  for (const auto& l : lines) out << l << "\n";
  EXPECT_TRUE(out.good()) << "cannot write " << path;
  return true;
}

TEST(ReportDigests, MatchCommittedPins) {
  const std::string path = GRETEL_REPORT_PIN_FILE;
  std::vector<Pin> got;
  for (const auto& c : kCaptures) got.push_back(run_capture(c));

  std::vector<std::string> lines;
  for (const auto& p : got) lines.push_back(pin_line(p));
  if (update_pins(path, "capture digest reports suppressed", lines))
    GTEST_SKIP() << "rewrote " << path;

  const auto want = read_pins(path);
  ASSERT_EQ(want.size(), got.size()) << "pin file " << path;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(pin_line(got[i]), pin_line(want[i]));
    // Not vacuous: every capture reports, and the digests tell them apart.
    EXPECT_GT(got[i].reports, 0u) << got[i].name;
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(got[i].digest, got[j].digest) << got[i].name;
  }
}

// --- Decode pins ---------------------------------------------------------

// Every rate non-zero, so the capture carries torn, flipped, re-delivered
// and out-of-order frames through each reject path of the tap.
net::ChaosConfig decode_chaos() {
  net::ChaosConfig chaos;
  chaos.seed = 26;
  chaos.truncate_rate = 0.03;
  chaos.corrupt_rate = 0.15;
  chaos.duplicate_rate = 0.03;
  chaos.reorder_rate = 0.05;
  return chaos;
}

struct DecodePin {
  std::string name;
  std::uint64_t digest = util::kFnv1a64Offset;
  net::TapStats stats;
};

std::string decode_pin_line(const DecodePin& p) {
  return p.name + " " + fingerprint_hex(p.digest) + " " +
         std::to_string(p.stats.decoded) + " " +
         std::to_string(p.stats.decode_failures) + " " +
         std::to_string(p.stats.unknown_api) + " " +
         std::to_string(p.stats.non_monotonic);
}

template <typename T>
std::uint64_t fold(std::uint64_t h, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h = util::fnv1a64_step(
        h, static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >>
                                     (8 * i)));
  }
  return h;
}

DecodePin decode_capture(std::string name,
                         const std::vector<net::WireRecord>& records) {
  auto& e = env();
  net::CaptureTap tap(&e.catalog.apis(), e.deployment.service_by_port());
  DecodePin pin;
  pin.name = std::move(name);
  for (const auto& r : records) {
    const auto ev = tap.decode(r);
    if (!ev) continue;
    auto h = fold(pin.digest, ev->api.value());
    h = fold(h, static_cast<std::uint8_t>(ev->kind));
    h = fold(h, static_cast<std::uint8_t>(ev->dir));
    h = fold(h, ev->status);
    h = fold(h, ev->correlation_id);
    h = fold(h, ev->conn_id);
    pin.digest = fold(h, ev->msg_id);
  }
  pin.stats = tap.stats();
  return pin;
}

TEST(DecodeDigests, MatchCommittedPins) {
  const std::string path = GRETEL_DECODE_PIN_FILE;
  std::vector<DecodePin> got;
  for (const auto& c : kCaptures)
    got.push_back(decode_capture(c.name, capture_records(c)));
  got.push_back(decode_capture(
      "chaos", net::ChaosTap::apply(decode_chaos(),
                                    capture_records(kCaptures[0]))));

  std::vector<std::string> lines;
  for (const auto& p : got) lines.push_back(decode_pin_line(p));
  if (update_pins(path,
                  "capture digest decoded decode_failures unknown_api "
                  "non_monotonic",
                  lines))
    GTEST_SKIP() << "rewrote " << path;

  const auto want = read_pin_lines(path);
  ASSERT_EQ(want.size(), lines.size()) << "pin file " << path;
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], want[i]);
  // Not vacuous: the chaos capture drives the malformed-frame, unknown-API
  // and out-of-order paths.
  const auto& chaos = got.back().stats;
  EXPECT_GT(chaos.decode_failures, 0u);
  EXPECT_GT(chaos.unknown_api, 0u);
  EXPECT_GT(chaos.non_monotonic, 0u);
}

// --- Persistence pins ----------------------------------------------------

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("grt-persist-pin-" + std::to_string(::getpid()) + "-" + tag))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// A short checkpoint cadence, so each session prunes checkpoints many
// times.  With 8-record segments the journal also rotates and purges; with
// the default segment size every record stays on disk and is pinned.
stream::StreamOptions persist_stream(std::size_t segment_records = 8) {
  stream::StreamOptions s;
  s.tick_ms = 200.0;
  s.checkpoint_interval_s = 2.0;
  s.journal_segment_records = segment_records;
  return s;
}

core::Analyzer::Options persist_options() {
  core::Analyzer::Options opt;
  opt.config.fp_max = env().training.fp_max;
  opt.config.p_rate = 150.0;
  return opt;
}

std::unique_ptr<stream::StreamAnalyzer> durable_stream(
    const std::string& dir, stream::StreamOptions opts = persist_stream()) {
  auto& e = env();
  auto sa = std::make_unique<stream::StreamAnalyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, persist_options(),
      stream::StreamAnalyzer::ReportSink{}, opts);
  EXPECT_TRUE(sa->enable_durability(dir));
  return sa;
}

// Samples node metrics over the capture into the stream's analyzer, so
// every report carries its RCA.
void sample_metrics(stream::StreamAnalyzer& sa,
                    const std::vector<net::WireRecord>& records) {
  monitor::ResourceMonitor mon(&env().deployment, SimDuration::seconds(1),
                               2026);
  mon.sample_range(SimTime::epoch(),
                   records.back().ts + SimDuration::seconds(3),
                   sa.analyzer().metrics());
}

void feed(stream::StreamAnalyzer& sa,
          const std::vector<net::WireRecord>& records, std::size_t from,
          std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    sa.advance_to(records[i].ts);
    sa.offer(records[i]);
  }
}

// One line per file left in `dir`, in name order: session, name, size and
// the FNV-1a 64 of the bytes.
void digest_dir(const std::string& session, const std::string& dir,
                std::vector<std::string>& lines) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_FALSE(names.empty()) << session;
  for (const auto& name : names) {
    const auto bytes = util::read_file(dir + "/" + name);
    ASSERT_TRUE(bytes.has_value()) << name;
    lines.push_back(session + " " + name + " " +
                    std::to_string(bytes->size()) + " " +
                    fingerprint_hex(util::fnv1a64(*bytes)));
  }
}

TEST(PersistDigests, MatchCommittedPins) {
  const std::string path = GRETEL_PERSIST_PIN_FILE;
  auto& e = env();
  const auto records = capture_records(kCaptures[0]);
  ASSERT_FALSE(records.empty());
  const std::size_t split = records.size() * 7 / 10;
  std::vector<std::string> lines;

  {
    TempDir dir("plain");
    auto sa = durable_stream(dir.path, persist_stream(4096));
    sample_metrics(*sa, records);
    feed(*sa, records, 0, records.size());
    sa->finish();
    EXPECT_GT(sa->journal_next_seq(), 0u);
    digest_dir("plain", dir.path, lines);
  }
  {
    // checkpoint_now() between ticks, with records still queued.
    TempDir dir("mid");
    auto sa = durable_stream(dir.path);
    sample_metrics(*sa, records);
    feed(*sa, records, 0, split);
    EXPECT_TRUE(sa->checkpoint_now());
    feed(*sa, records, split, records.size());
    sa->finish();
    digest_dir("mid", dir.path, lines);
  }
  {
    // A crash 70% of the way in (no finish), then restore() over the
    // directory: the restored stream replays the journal tail, continues
    // and checkpoints twice, pruning files it found when it armed.
    TempDir dir("restore");
    {
      auto sa = durable_stream(dir.path);
      sample_metrics(*sa, records);
      feed(*sa, records, 0, split);
    }
    stream::RecoveryInfo ri;
    auto sa = stream::StreamAnalyzer::restore(
        &e.training.db, &e.catalog.apis(), &e.deployment, persist_options(),
        dir.path, {}, &ri, persist_stream());
    ASSERT_NE(sa, nullptr);
    EXPECT_TRUE(ri.recovered);
    EXPECT_FALSE(ri.replayed.empty());
    sample_metrics(*sa, records);
    feed(*sa, records, split, records.size());
    EXPECT_TRUE(sa->checkpoint_now());
    EXPECT_TRUE(sa->checkpoint_now());
    digest_dir("restore", dir.path, lines);
  }

  if (update_pins(path, "session file bytes fnv1a64", lines))
    GTEST_SKIP() << "rewrote " << path;

  const auto want = read_pin_lines(path);
  ASSERT_EQ(want.size(), lines.size()) << "pin file " << path;
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], want[i]);
}

}  // namespace
}  // namespace gretel::campaign
