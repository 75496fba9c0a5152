// Probe-based monitoring substrate (§5.1, §6 "System state monitoring").
//
// The oracle watchers read ground-truth deployment state directly, which
// means monitoring evidence can never time out, flap, go stale, or lie —
// exactly the failure modes a real collectd/TCP-watcher substrate exhibits
// (cf. the non-intrusive event-analysis resilience argument of
// arXiv:2301.07422).  This header models the monitoring plane itself as a
// fallible component:
//
//  * every dependency check is a *probe* with a per-attempt deadline,
//    bounded retries, exponential backoff and deterministic seeded jitter;
//  * each (node, dependency) target has a circuit breaker
//    (closed → open → half-open) so a wedged agent costs a bounded amount
//    of probe time before its targets are reported Unknown;
//  * reported state changes pass a flap-suppression hysteresis (N
//    consecutive agreeing observations);
//  * MonitorChaos injects probe-level faults (drop, delay past deadline,
//    timeout, false positive/negative results, agent crash/restart, frozen
//    metric streams) from fixed per-probe hash draws, in the style of
//    net/chaos.h: with every rate at zero the injector is a strict no-op
//    that never draws, the affected set at rate r nests inside the set at
//    any r' > r (monotone loss sweeps), and every injection lands in an
//    audit log tests reconcile against the probe counters (the
//    fault-injection-analytics methodology of arXiv:2010.00331).
//
// Evidence quality is first-class: every observation carries an
// EvidenceStatus so Algorithm 3 can distinguish "probed and clean" from
// "stale/unknown" instead of treating missing evidence as innocence.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "stack/faults.h"
#include "util/capped_log.h"
#include "util/time.h"
#include "wire/endpoint.h"

namespace gretel::monitor {

// Quality of one piece of monitoring evidence.
//  Confirmed — a first-attempt probe (or the oracle) observed it directly.
//  Suspected — observed, but through degraded machinery: a retried probe,
//              or a state change still inside the flap-hysteresis window.
//  Stale     — judged from data whose freshness watermark predates the
//              queried window (frozen metric stream, lagging agent).
//  Unknown   — no usable evidence: breaker open, every attempt timed out
//              or was dropped, or the probe budget was exhausted.
enum class EvidenceStatus : std::uint8_t { Confirmed, Suspected, Stale,
                                           Unknown };

const char* to_string(EvidenceStatus status);

// Knobs of the probe engine.  The defaults preserve exact legacy behavior
// under zero chaos: probes succeed on the first attempt at zero simulated
// cost and flap_hysteresis = 1 reports every state change immediately, so
// the probed watcher is byte-identical to the oracle watcher.
struct ProbeConfig {
  double timeout_ms = 100.0;     // per-attempt reply deadline
  int retries = 2;               // additional attempts after the first
  double backoff_base_ms = 10.0; // backoff before retry r: base · 2^r ...
  double backoff_cap_ms = 1000.0;  // ... capped here, plus seeded jitter
  int breaker_open_after = 3;    // consecutive probe failures that open
  int breaker_open_polls = 4;    // polls skipped while open, then half-open
  int flap_hysteresis = 1;       // agreeing observations to switch state
  std::uint64_t seed = 1;        // jitter derivation seed
};

enum class MonitorChaosAction : std::uint8_t {
  ProbeDrop,      // probe lost in flight: no reply, costs the full deadline
  ProbeDelay,     // reply exists but arrives past the deadline
  ProbeTimeout,   // agent accepted the probe and never answered
  FalsePositive,  // healthy target reported failed
  FalseNegative,  // failed target reported healthy
  AgentCrash,     // monitoring agent crash onset (restarts after a window)
  MetricFreeze,   // one (node, resource) sample lost to a frozen stream
};

const char* to_string(MonitorChaosAction action);

// One injected monitoring fault, in injection order.
struct MonitorInjection {
  MonitorChaosAction action = MonitorChaosAction::ProbeDrop;
  std::uint8_t node = 0;
  std::string target;      // dependency name, "tcp:<svc>", or resource name
  std::int64_t tick = 0;   // poll time (nanos) or onset second
  std::int64_t detail = 0; // attempt index, crash/freeze length, ...
};

struct MonitorChaosConfig {
  std::uint64_t seed = 1;

  // Probe-level faults, i.i.d. per (target, poll, attempt).
  double probe_drop_rate = 0.0;
  double probe_delay_rate = 0.0;
  double probe_timeout_rate = 0.0;

  // Lying results: applied to probes that do deliver a reply.
  double false_positive_rate = 0.0;
  double false_negative_rate = 0.0;

  // Agent crash/restart: with probability `agent_crash_rate` per
  // (node, second) a node's monitoring agent crashes and fast-fails every
  // probe for the next `agent_crash_seconds` seconds, then restarts.
  double agent_crash_rate = 0.0;
  int agent_crash_seconds = 8;

  // Frozen metric streams: with probability `metric_freeze_rate` per
  // (node, resource, second) the stream freezes — samples are silently
  // lost — for `metric_freeze_seconds` seconds.
  double metric_freeze_rate = 0.0;
  int metric_freeze_seconds = 16;

  // Declarative agent outages (stack/faults.h): wedged agents hang every
  // probe to its deadline; crashed agents fail fast.  Deterministic spec,
  // so not audited as injections.
  std::vector<stack::MonitorAgentFault> agent_outages;

  // Audit-log retention: newest `audit_limit` injections kept (0 =
  // unbounded).  count() totals stay exact past the cap; audit().dropped()
  // counts the shed entries.
  std::size_t audit_limit = 65536;

  bool enabled() const {
    return probe_drop_rate > 0 || probe_delay_rate > 0 ||
           probe_timeout_rate > 0 || false_positive_rate > 0 ||
           false_negative_rate > 0 || agent_crash_rate > 0 ||
           metric_freeze_rate > 0 || !agent_outages.empty();
  }
};

// Deterministic monitoring-fault injector.  Every decision is one uniform
// derived by hashing (seed, node, target, tick, attempt, decision-tag) and
// compared against its rate — stateless draws, so a probe's fate does not
// depend on scheduling order, zero rates never consult the hash, and the
// affected set at rate r is a subset of the affected set at any r' > r.
class MonitorChaos {
 public:
  explicit MonitorChaos(MonitorChaosConfig config);

  struct ProbeFate {
    bool dropped = false;
    bool delayed = false;
    bool timed_out = false;
    bool flipped = false;        // false positive/negative applied
    bool agent_crashed = false;  // rate-based crash window active
    bool agent_wedged = false;   // declarative wedge window active
  };

  // Fate of one probe attempt.  `target_healthy` selects which flip rate
  // applies.  Fired injections are appended to the audit log.
  ProbeFate probe_fate(wire::NodeId node, std::string_view target,
                       std::int64_t tick_nanos, int attempt,
                       bool target_healthy);

  // True when the (node, resource) stream is frozen at `t`; audits one
  // MetricFreeze injection per lost sample.
  bool metric_frozen(wire::NodeId node, std::string_view resource,
                     util::SimTime t);

  // Deterministic jitter in [0, 1) for retry `attempt` of a probe; used by
  // the backoff schedule.  Derived from the chaos seed so a fixed seed
  // reproduces the exact retry timeline.
  double jitter(wire::NodeId node, std::string_view target,
                std::int64_t tick_nanos, int attempt) const;

  const MonitorChaosConfig& config() const { return config_; }
  // Newest config.audit_limit injections in order; count() totals remain
  // exact past the cap (audit().dropped() counts shed entries).
  const util::CappedLog<MonitorInjection>& audit() const { return audit_; }
  std::uint64_t count(MonitorChaosAction action) const;

 private:
  bool agent_crashed_at(wire::NodeId node, util::SimTime t);

  MonitorChaosConfig config_;
  util::CappedLog<MonitorInjection> audit_;
  std::uint64_t counts_[7] = {};
  // Rate-based crash onsets already audited (dedup across queries).
  std::set<std::pair<std::uint8_t, std::int64_t>> crash_onsets_seen_;
};

// Flat probe-plane counters, read through DependencyWatcher::probe_stats().
struct ProbeStats {
  std::uint64_t probes = 0;        // logical probes (target × poll)
  std::uint64_t attempts = 0;      // wire attempts, including retries
  std::uint64_t retries = 0;       // attempts beyond the first
  std::uint64_t timeouts = 0;      // attempts lost to deadline expiry
  std::uint64_t drops = 0;         // attempts failed fast (crash, refused)
  std::uint64_t probe_failures = 0;  // logical probes with no usable reply
  std::uint64_t false_results = 0;   // chaos-flipped replies delivered
  std::uint64_t breaker_trips = 0;   // closed → open transitions
  std::uint64_t breaker_skips = 0;   // probes skipped on an open breaker
  std::uint64_t flap_suppressed = 0; // observations held by hysteresis
  std::uint64_t budget_exhausted = 0;  // targets skipped on spent budget
};

// One probed observation of a dependency target.
struct ProbeObservation {
  bool up = true;
  bool usable = false;           // false: no reply survived (Unknown)
  EvidenceStatus evidence = EvidenceStatus::Unknown;
  bool flap_held = false;        // a raw state change is pending hysteresis
  double elapsed_ms = 0.0;       // simulated probe time consumed
};

// Scheduled prober for (node, dependency) targets.  Owns per-target breaker
// and hysteresis state; long-lived, like the monitoring agents it models.
class ProbeEngine {
 public:
  ProbeEngine(ProbeConfig config, MonitorChaosConfig chaos);

  // Probes one target at poll time `t` against ground truth `truth_up`.
  // The returned observation reflects breaker, retries, chaos, and
  // hysteresis; `elapsed_ms` is the simulated time the probe consumed.
  ProbeObservation probe(wire::NodeId node, std::string_view dependency,
                         bool truth_up, util::SimTime t);

  const ProbeStats& stats() const { return stats_; }
  ProbeStats& stats() { return stats_; }
  MonitorChaos& chaos() { return chaos_; }
  const MonitorChaos& chaos() const { return chaos_; }
  const ProbeConfig& config() const { return config_; }

 private:
  enum class BreakerState : std::uint8_t { Closed, Open, HalfOpen };

  struct TargetState {
    BreakerState breaker = BreakerState::Closed;
    int consecutive_failures = 0;
    int open_polls_left = 0;
    // Flap suppression: reported state trails raw observations until
    // `flap_hysteresis` consecutive observations agree.
    bool reported_up = true;
    bool candidate_up = true;
    int candidate_streak = 0;
  };

  double backoff_ms(wire::NodeId node, std::string_view dependency,
                    std::int64_t tick, int attempt) const;

  ProbeConfig config_;
  MonitorChaos chaos_;
  ProbeStats stats_;
  std::map<std::pair<std::uint8_t, std::string>, TargetState> targets_;
};

}  // namespace gretel::monitor
