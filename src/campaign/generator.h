// Scenario generation: enumerate/sample the campaign fault space.
//
// The generator walks the fault classes round-robin (so even a reduced CI
// campaign covers every class) and samples each scenario's parameters —
// injection site, intensity, start/duration, workload mix — from an RNG
// seeded by splitmix64 derivation over (campaign seed, scenario index).
// Same plan + same seed → byte-identical scenario list, which is what
// makes whole sweeps reproducible and lets failure clusters be named by
// scenario id.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "campaign/scenario.h"
#include "stream/stream_analyzer.h"
#include "tempest/catalog.h"

namespace gretel::campaign {

struct CampaignPlan {
  std::uint64_t seed = 0xCA59A16Eull;
  std::size_t scenarios = 500;
  // Cap on simultaneous injected workload faults (multi-fault classes).
  std::size_t max_concurrent_faults = 2;
  // Per-scenario analysis budget, in post-chaos wire records (0 = off).
  std::size_t budget_events = 200000;
  // Background workload per scenario; faults ride on top of this mix.
  int concurrent_tests = 12;
  double window_s = 45.0;

  // Streaming execution when set: feed each scenario through a
  // StreamAnalyzer with these options (source ring, tick cadence, shed
  // policy) instead of the batch on_wire/finish path, and record the
  // fault-injection-to-first-report latency per scenario.  Scoring is
  // unchanged; reports are tick-quantized, so fingerprints may differ from
  // batch mode.
  std::optional<stream::StreamOptions> stream;
};

class ScenarioGenerator {
 public:
  ScenarioGenerator(const tempest::TempestCatalog* catalog,
                    CampaignPlan plan);

  // All scenarios of the campaign, in id order.
  std::vector<ScenarioSpec> generate() const;

  // Scenario `index` alone (generation is per-scenario deterministic, so
  // single scenarios can be re-derived for debugging a cluster member).
  ScenarioSpec generate_one(std::uint64_t index) const;

 private:
  const tempest::TempestCatalog* catalog_;
  CampaignPlan plan_;
};

}  // namespace gretel::campaign
