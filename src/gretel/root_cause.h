// Root cause analysis (§5.4, Algorithm 3).
//
// Combines (a) the error metadata forwarded by the anomaly detector and
// (b) distributed state collected by the monitoring agents within the
// context-buffer window.  The engine derives the operation's node set from
// the matched fingerprints, inspects the error-endpoint nodes first for
// anomalous resources (Is_Anomalous over the collectd series) and failed
// software dependencies (watchers), and — when those come back clean —
// expands to the remaining nodes of the operation, since the root cause may
// be upstream of where the fault surfaced.
//
// The engine is honest about evidence quality: dependency state arrives
// through the watcher's probe layer (which can time out, trip breakers, or
// flap-suppress) and metric series carry freshness watermarks.  Open
// breakers, exhausted budgets, and stale series are treated as "unknown,
// keep looking" rather than "clean", and every finding carries an
// EvidenceStatus + confidence.
#pragma once

#include <vector>

#include "gretel/config.h"
#include "gretel/fingerprint_db.h"
#include "gretel/report.h"
#include "monitor/metrics.h"
#include "monitor/watcher.h"
#include "stack/deployment.h"

namespace gretel::core {

class RootCauseEngine {
 public:
  struct Options {
    // Metric freshness horizon; 0 = staleness checking off (legacy).
    double metric_staleness_s = 0.0;
    // Per-analysis probe deadline budget; 0 = unbounded (legacy).
    double probe_budget_ms = 0.0;

    // The analyzer's RCA knobs, read from their GretelConfig rows.
    static Options from(const GretelConfig& config) {
      Options o;
      o.metric_staleness_s = config.metric_staleness_s;
      o.probe_budget_ms = config.probe_budget_ms;
      return o;
    }
  };

  RootCauseEngine(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                  const stack::Deployment* deployment,
                  const monitor::MetricsStore* metrics,
                  const monitor::DependencyWatcher* watcher,
                  Options options);
  // Default-options overload (GCC rejects a brace default argument for a
  // nested aggregate inside its own class).
  RootCauseEngine(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                  const stack::Deployment* deployment,
                  const monitor::MetricsStore* metrics,
                  const monitor::DependencyWatcher* watcher);

  RootCauseReport analyze(const FaultReport& fault) const;

  // All nodes participating in the given operations (via their
  // fingerprints' services) — GET_LIST_OF_NODES_FOR_OPERATION.  Nodes come
  // in order of first appearance walking fingerprints, then their APIs'
  // services; each distinct service is resolved to its nodes once.
  std::vector<wire::NodeId> nodes_for_operations(
      const std::vector<FingerprintDb::Index>& fingerprints) const;

 private:
  // FIND_ROOT_CAUSE over one node set, against the window's dependency
  // evidence.  Evidence gaps and stale-series hits for nodes in the set
  // are appended to `report`.
  std::vector<Cause> find_causes(const std::vector<wire::NodeId>& nodes,
                                 util::SimTime from, util::SimTime to,
                                 const monitor::WindowEvidence& evidence,
                                 RootCauseReport& report) const;

  const FingerprintDb* db_;
  const wire::ApiCatalog* catalog_;
  const stack::Deployment* deployment_;
  const monitor::MetricsStore* metrics_;
  const monitor::DependencyWatcher* watcher_;
  Options options_;
  // Is_Anomalous partition buffer, reused across series and reports so the
  // per-report path allocates nothing for it (the engine is single-threaded,
  // like the serial analyzer that owns it).
  mutable std::vector<double> series_scratch_;
};

}  // namespace gretel::core
