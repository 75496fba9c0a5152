#include "gretel/root_cause.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <sstream>

#include "detect/series_analysis.h"

namespace gretel::core {

namespace {

// (§5.4) · 3 s · metric context added around the fault window on both
// sides before Is_Anomalous runs.
constexpr util::SimDuration kWindowPad = util::SimDuration::seconds(3);

// (§5.4) · 5.0 · Is_Anomalous threshold: a window's resource level is
// anomalous when it deviates from the node's own baseline by more than
// this many baseline sigmas.
constexpr double kAnomalyKSigma = 5.0;

}  // namespace

RootCauseEngine::RootCauseEngine(const FingerprintDb* db,
                                 const wire::ApiCatalog* catalog,
                                 const stack::Deployment* deployment,
                                 const monitor::MetricsStore* metrics,
                                 const monitor::DependencyWatcher* watcher,
                                 Options options)
    : db_(db),
      catalog_(catalog),
      deployment_(deployment),
      metrics_(metrics),
      watcher_(watcher),
      options_(options) {
  assert(db_ && catalog_ && deployment_ && metrics_ && watcher_);
}

RootCauseEngine::RootCauseEngine(const FingerprintDb* db,
                                 const wire::ApiCatalog* catalog,
                                 const stack::Deployment* deployment,
                                 const monitor::MetricsStore* metrics,
                                 const monitor::DependencyWatcher* watcher)
    : RootCauseEngine(db, catalog, deployment, metrics, watcher, Options{}) {}

std::vector<wire::NodeId> RootCauseEngine::nodes_for_operations(
    const std::vector<FingerprintDb::Index>& fingerprints) const {
  static_assert(static_cast<std::size_t>(wire::ServiceKind::Unknown) < 32);
  std::vector<wire::NodeId> out;
  std::uint32_t seen = 0;  // bit per ServiceKind already resolved
  for (auto idx : fingerprints) {
    for (auto api : db_->get(idx).sequence) {
      const auto service = catalog_->get(api).service;
      const auto bit = std::uint32_t{1} << static_cast<unsigned>(service);
      if (seen & bit) continue;  // its nodes are already in `out`
      seen |= bit;
      for (auto node : deployment_->nodes_for(service)) {
        if (std::find(out.begin(), out.end(), node) == out.end())
          out.push_back(node);
      }
    }
  }
  return out;
}

std::vector<Cause> RootCauseEngine::find_causes(
    const std::vector<wire::NodeId>& nodes, util::SimTime from,
    util::SimTime to, const monitor::WindowEvidence& evidence,
    RootCauseReport& report) const {
  std::vector<Cause> causes;

  for (auto node : nodes) {
    // Resource anomalies: the fault window vs the node's own recent past.
    for (std::size_t k = 0; k < net::kResourceKinds; ++k) {
      const auto kind = static_cast<net::ResourceKind>(k);
      const auto* series = metrics_->series(node, kind);

      // Freshness gate (when enabled): a series whose newest sample lags
      // the window end is *stale*, not clean — a frozen collectd stream
      // would otherwise read as "no anomaly" forever.  Is_Anomalous is
      // skipped for the series and the gap is annotated instead.
      if (options_.metric_staleness_s > 0.0) {
        const auto watermark = metrics_->watermark_s(node, kind);
        const bool missing = !watermark.has_value();
        if (missing ||
            *watermark + options_.metric_staleness_s < to.to_seconds()) {
          ++report.stale_series;
          monitor::EvidenceGap gap;
          gap.node = node;
          gap.dependency = "metric:";
          gap.dependency += to_string(kind);
          gap.status = missing ? monitor::EvidenceStatus::Unknown
                               : monitor::EvidenceStatus::Stale;
          report.evidence_gaps.push_back(std::move(gap));
          continue;
        }
      }
      if (!series) continue;
      const auto verdict =
          detect::analyze_window(*series, from.to_seconds(), to.to_seconds(),
                                 series_scratch_, kAnomalyKSigma);

      // The absolute rules judge the window level alone, so they need only
      // in-window samples (a full disk reads exactly 0 MB free).
      const char* absolute = nullptr;
      if (const auto rule =
              detect::absolute_rule_violation(kind, verdict.window_level);
          rule && verdict.window_samples > 0) {
        absolute = *rule;
      }
      if (!verdict.anomalous && !absolute) continue;

      std::ostringstream detail;
      detail << to_string(kind) << " level " << verdict.window_level;
      if (verdict.anomalous) {
        detail << " vs baseline " << verdict.baseline_level;
      }
      if (absolute) detail << " (" << absolute << ")";
      Cause c;
      c.kind = CauseKind::ResourceAnomaly;
      c.node = node;
      c.detail = detail.str();
      c.score = verdict.sigma > 0
                    ? std::abs(verdict.window_level - verdict.baseline_level) /
                          verdict.sigma
                    : 0.0;
      causes.push_back(std::move(c));
    }
  }

  // Software dependency failures observed in the window, with the probe
  // layer's evidence quality attached.
  for (const auto& failure : evidence.failures) {
    if (std::find(nodes.begin(), nodes.end(), failure.node) == nodes.end())
      continue;
    Cause c;
    c.kind = CauseKind::SoftwareFailure;
    c.node = failure.node;
    c.detail = failure.dependency;
    c.score = 1e9;  // a dead dependency outranks any resource deviation
    c.evidence = failure.evidence;
    c.confidence =
        failure.evidence == monitor::EvidenceStatus::Confirmed ? 1.0 : 0.5;
    causes.push_back(std::move(c));
  }

  // Dependency targets on these nodes whose state could not be confirmed
  // (open breaker, exhausted retries/budget, flap-pending): annotate them
  // so "no cause here" reads as "could not look", not "clean".
  for (const auto& gap : evidence.gaps) {
    if (std::find(nodes.begin(), nodes.end(), gap.node) == nodes.end())
      continue;
    report.evidence_gaps.push_back(gap);
  }

  std::sort(causes.begin(), causes.end(),
            [](const Cause& a, const Cause& b) { return a.score > b.score; });
  return causes;
}

RootCauseReport RootCauseEngine::analyze(const FaultReport& fault) const {
  RootCauseReport report;
  // A lossy snapshot weakens negative evidence (a clean node may simply be
  // one whose telemetry was lost); carry the flag through to the diagnosis.
  report.degraded = fault.degraded_confidence;
  const auto from = fault.window_start - kWindowPad;
  const auto to = fault.window_end + kWindowPad;

  // Collect the window's dependency evidence ONCE: probing advances
  // breaker/flap state and spends the deadline budget, so both search
  // phases must share a single pass over the watchers.
  const auto evidence = watcher_->window_evidence(
      from, to, util::SimDuration::seconds(1), options_.probe_budget_ms);
  report.probe_time_ms = evidence.probe_time_ms;

  // Error-endpoint nodes first (GET_ERROR_NODES).
  std::vector<wire::NodeId> error_nodes;
  auto add = [&error_nodes](wire::NodeId id) {
    if (std::find(error_nodes.begin(), error_nodes.end(), id) ==
        error_nodes.end())
      error_nodes.push_back(id);
  };
  for (const auto& ev : fault.error_events) {
    add(ev.src_node);
    add(ev.dst_node);
  }

  report.causes = find_causes(error_nodes, from, to, evidence, report);
  // Clean endpoints — or endpoints we could not actually observe — expand
  // to the remaining nodes of the operation: the root cause may be
  // upstream (§5.4, demonstrated in §7.2.3/§7.2.4), and an open breaker
  // or stale series on an endpoint is "unknown", not "clean".
  if (report.causes.empty()) {
    auto all_nodes = nodes_for_operations(fault.matched_fingerprints);
    std::vector<wire::NodeId> remaining;
    for (auto node : all_nodes) {
      if (std::find(error_nodes.begin(), error_nodes.end(), node) ==
          error_nodes.end())
        remaining.push_back(node);
    }
    report.causes = find_causes(remaining, from, to, evidence, report);
    report.expanded_search = true;
  }

  report.monitoring_degraded = !report.evidence_gaps.empty() ||
                               report.stale_series > 0 ||
                               evidence.budget_exhausted;
  return report;
}

bool cause_canonical_less(const Cause& a, const Cause& b) {
  if (a.kind != b.kind) {
    return static_cast<std::uint8_t>(a.kind) <
           static_cast<std::uint8_t>(b.kind);
  }
  if (a.node.value() != b.node.value()) return a.node.value() < b.node.value();
  if (a.detail != b.detail) return a.detail < b.detail;
  return static_cast<std::uint8_t>(a.evidence) <
         static_cast<std::uint8_t>(b.evidence);
}

}  // namespace gretel::core
