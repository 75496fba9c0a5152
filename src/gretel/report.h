// Diagnosis artifacts the analyzer hands to operators: fault reports from
// the anomaly detector (§5.3) and root-cause findings (§5.4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "detect/latency_tracker.h"
#include "monitor/watcher.h"
#include "util/time.h"
#include "wire/message.h"

namespace gretel::core {

enum class FaultKind : std::uint8_t { Operational, Performance };

struct FaultReport {
  FaultKind kind = FaultKind::Operational;
  wire::ApiId offending_api;
  util::SimTime detected_at;

  // Operation detection outcome (Algorithm 2).
  std::vector<std::uint32_t> matched_fingerprints;  // FingerprintDb indices
  double theta = 0.0;           // precision θ = (N - n) / (N - 1)
  std::size_t beta_final = 0;   // context buffer size at convergence
  std::size_t candidates = 0;   // fingerprints containing the offending API

  // Error messages found inside the snapshot (REST and RPC), with their
  // endpoint nodes — Algorithm 3 starts its search from these.  Flat rows:
  // one allocation per report, however many errors it carries.
  std::vector<wire::Event> error_events;

  // Context-buffer time span, which bounds the root-cause analysis window.
  util::SimTime window_start;
  util::SimTime window_end;

  // Performance faults carry the triggering latency alarm.
  std::optional<detect::LatencyAlarm> latency;

  // Degraded-telemetry annotation: how many telemetry losses (quarantined
  // frames, overflow drops) fell inside the frozen window, and the derived
  // confidence flag.  A degraded report is still actionable — the matcher
  // ran on what survived — but its θ and match set may be understated.
  std::uint64_t window_losses = 0;
  bool degraded_confidence = false;
};

enum class CauseKind : std::uint8_t { ResourceAnomaly, SoftwareFailure };

struct Cause {
  CauseKind kind = CauseKind::ResourceAnomaly;
  wire::NodeId node;
  std::string detail;   // e.g. "cpu level 93.1 vs baseline 8.2" or daemon
  double score = 0.0;   // deviation in baseline sigmas (resources)
  // Quality of the monitoring evidence behind the finding: Confirmed for
  // oracle/first-attempt observations, Suspected when the probe machinery
  // was degraded (retried replies, flap-pending state changes).
  monitor::EvidenceStatus evidence = monitor::EvidenceStatus::Confirmed;
  double confidence = 1.0;  // 1.0 Confirmed, lower for weaker evidence
};

struct RootCauseReport {
  std::vector<Cause> causes;
  // True when the error-endpoint nodes were clean and the search expanded
  // to the remaining nodes of the operation (upstream root cause).
  bool expanded_search = false;
  // Propagated from FaultReport::degraded_confidence: the underlying
  // snapshot had telemetry gaps, so absence of a cause is weaker evidence
  // than usual.
  bool degraded = false;
  // Monitoring-plane degradation inside this analysis window: some
  // dependency or metric evidence was Suspected/Stale/Unknown, so "no
  // cause on a node" may mean "could not observe the node".  Independent
  // of `degraded`, which annotates the *wire* snapshot.
  bool monitoring_degraded = false;
  // Dependency targets whose state could not be confirmed (open breaker,
  // exhausted retries/budget, flap-pending changes), deduplicated.
  std::vector<monitor::EvidenceGap> evidence_gaps;
  // Metric series whose freshness watermark lagged the window (or were
  // never sampled) while staleness checking was enabled.
  std::uint64_t stale_series = 0;
  // Simulated probe time the analysis spent; bounded by the configured
  // probe budget when one is set.
  double probe_time_ms = 0.0;
};

struct Diagnosis {
  FaultReport fault;
  RootCauseReport root_cause;
};

// Canonical (presentation-independent) ordering of causes: by kind, node,
// detail, then evidence status — deliberately ignoring score and
// confidence, whose float values rank ties differently across backends.
// The campaign fingerprint sorts causes with this before hashing so that
// cosmetic ordering differences within a score tie cannot change a
// report's failure-mode signature.  Implemented in root_cause.cpp.
bool cause_canonical_less(const Cause& a, const Cause& b);

}  // namespace gretel::core
