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
// Regenerating the pins is a deliberate step, taken only when a change is
// meant to alter reports:
//
//   GRETEL_UPDATE_PINS=1 build/tests/campaign_tests
//       --gtest_filter='ReportDigests.*'
//
// rewrites tests/campaign/report_digests.pin in the source tree; commit it
// and name the changed captures and the reason in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/fingerprint.h"
#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "tempest/workload.h"

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

Pin run_capture(const PinnedCapture& c) {
  auto& e = env();
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = c.tests;
  spec.faults = c.faults;
  spec.window = SimDuration::seconds(c.window_s);
  spec.seed = c.seed;
  const auto workload = tempest::make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), 1000 + c.seed);
  const auto records = executor.execute(workload.launches);

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

std::vector<Pin> read_pins(const std::string& path) {
  std::vector<Pin> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Pin p;
    fields >> p.name >> p.digest >> p.reports >> p.suppressed;
    pins.push_back(std::move(p));
  }
  return pins;
}

TEST(ReportDigests, MatchCommittedPins) {
  const std::string path = GRETEL_REPORT_PIN_FILE;
  std::vector<Pin> got;
  for (const auto& c : kCaptures) got.push_back(run_capture(c));

  if (const char* update = std::getenv("GRETEL_UPDATE_PINS");
      update && std::string(update) == "1") {
    std::ofstream out(path, std::ios::trunc);
    out << "# capture digest reports suppressed -- written by "
           "tests/campaign/report_pin_test.cpp\n";
    for (const auto& p : got) out << pin_line(p) << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "rewrote " << path;
  }

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

}  // namespace
}  // namespace gretel::campaign
