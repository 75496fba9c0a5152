// Campaign orchestration: run one scenario end-to-end and score it.
//
// For each ScenarioSpec the orchestrator builds a fresh deployment (env
// faults mutate node state), applies the environmental perturbation,
// launches the background workload with the injected faults riding on top,
// routes the captured wire traffic through ChaosTap, enforces the event
// budget, and feeds the survivors to a full Analyzer (root cause on,
// probed monitoring when the scenario degrades that plane).  The outcome
// is scored against ground truth — per-fault detection/identification via
// instance labels, env-cause localization via node/daemon match — and the
// diagnosis set is collapsed to its failure-mode fingerprint for
// clustering.  Chaos audit logs are reconciled against the pipeline's
// counters on every scenario; a reconciliation mismatch is itself an
// outcome (Crashed), because it means the telemetry bookkeeping lied.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "campaign/fingerprint.h"
#include "campaign/generator.h"
#include "campaign/scenario.h"
#include "gretel/training.h"

namespace gretel::campaign {

// How the analyzer's conclusion relates to the scenario's ground truth.
enum class Outcome : std::uint8_t {
  Localized,      // every fault detected, true op identified, env cause hit
  Missed,         // a fault went undetected, or the env cause never appeared
  Misattributed,  // detected, but pinned on the wrong op / node / daemon
  Crashed,        // exception, or audit/counter reconciliation failure
};
const char* to_string(Outcome o);
inline constexpr std::size_t kOutcomes = 4;

struct ScenarioResult {
  std::uint64_t id = 0;
  FaultClass fault_class = FaultClass::OpError;
  Outcome outcome = Outcome::Missed;
  // Failure-mode signature of the diagnosis set (fingerprint.h).
  std::uint64_t fingerprint = 0;

  std::size_t faults_total = 0;
  std::size_t faults_detected = 0;
  std::size_t faults_identified = 0;
  bool env_expected = false;
  bool env_localized = false;
  std::size_t diagnoses = 0;
  std::uint64_t events = 0;       // records analyzed (post-chaos, post-budget)
  bool budget_truncated = false;  // event budget clipped the stream
  // Audit entries shed past the retention caps (0 unless a scenario's
  // injection volume exceeded them; aggregate stats stay exact regardless).
  std::uint64_t audit_shed = 0;
  // Streaming execution only (CampaignPlan::stream): detection ticks
  // run, records shed at admission, and the latency from the earliest
  // fault injection to the first emitted report (-1 when the scenario has
  // no faults or nothing was reported).
  std::uint64_t stream_ticks = 0;
  std::uint64_t stream_shed = 0;
  double first_report_latency_ms = -1.0;
  std::string note;  // crash reason / reconciliation detail, else empty
};

class CampaignOrchestrator {
 public:
  CampaignOrchestrator(const tempest::TempestCatalog* catalog,
                       const core::TrainingReport* training,
                       CampaignPlan plan);

  ScenarioResult run(const ScenarioSpec& spec) const;
  std::vector<ScenarioResult> run_all(
      std::span<const ScenarioSpec> specs) const;

 private:
  ScenarioResult run_guarded(const ScenarioSpec& spec) const;

  const tempest::TempestCatalog* catalog_;
  const core::TrainingReport* training_;
  CampaignPlan plan_;
};

}  // namespace gretel::campaign
