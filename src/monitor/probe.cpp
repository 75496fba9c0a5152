#include "monitor/probe.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace gretel::monitor {

const char* to_string(EvidenceStatus status) {
  switch (status) {
    case EvidenceStatus::Confirmed: return "confirmed";
    case EvidenceStatus::Suspected: return "suspected";
    case EvidenceStatus::Stale: return "stale";
    case EvidenceStatus::Unknown: return "unknown";
  }
  return "unknown";
}

const char* to_string(MonitorChaosAction action) {
  switch (action) {
    case MonitorChaosAction::ProbeDrop: return "probe_drop";
    case MonitorChaosAction::ProbeDelay: return "probe_delay";
    case MonitorChaosAction::ProbeTimeout: return "probe_timeout";
    case MonitorChaosAction::FalsePositive: return "false_positive";
    case MonitorChaosAction::FalseNegative: return "false_negative";
    case MonitorChaosAction::AgentCrash: return "agent_crash";
    case MonitorChaosAction::MetricFreeze: return "metric_freeze";
  }
  return "unknown";
}

namespace {

// Per-decision tags keep the hash streams of the individual fate draws
// independent of each other.
enum DrawTag : std::uint64_t {
  kDrop = 1,
  kDelay = 2,
  kTimeout = 3,
  kFlip = 4,
  kCrashOnset = 5,
  kFreezeOnset = 6,
  kJitter = 7,
};

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Stateless uniform in [0, 1): the same key always yields the same draw,
// whatever order probes execute in.
double uniform(std::uint64_t seed, std::uint64_t node,
               std::uint64_t target_hash, std::int64_t tick,
               std::int64_t attempt, std::uint64_t tag) {
  std::uint64_t h = mix64(seed ^ tag);
  h = mix64(h ^ (node + 1));
  h = mix64(h ^ target_hash);
  h = mix64(h ^ static_cast<std::uint64_t>(tick));
  h = mix64(h ^ static_cast<std::uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

MonitorChaos::MonitorChaos(MonitorChaosConfig config)
    : config_(std::move(config)), audit_(config_.audit_limit) {}

std::uint64_t MonitorChaos::count(MonitorChaosAction action) const {
  return counts_[static_cast<std::size_t>(action)];
}

bool MonitorChaos::agent_crashed_at(wire::NodeId node, util::SimTime t) {
  // Declarative outage windows first (not audited: deterministic spec).
  for (const auto& o : config_.agent_outages) {
    if (o.node == node && t >= o.start && t < o.end) return true;
  }
  if (config_.agent_crash_rate <= 0) return false;
  // Rate-based crash windows at one-second onset granularity: the agent is
  // down at t when any onset fired within the last `agent_crash_seconds`.
  const std::int64_t second = t.nanos() / 1'000'000'000;
  const int window = std::max(1, config_.agent_crash_seconds);
  for (std::int64_t onset = std::max<std::int64_t>(0, second - window + 1);
       onset <= second; ++onset) {
    if (uniform(config_.seed, node.value(), 0, onset, 0, kCrashOnset) <
        config_.agent_crash_rate) {
      if (crash_onsets_seen_.emplace(node.value(), onset).second) {
        audit_.push_back({MonitorChaosAction::AgentCrash, node.value(), "",
                          onset, window});
        ++counts_[static_cast<std::size_t>(MonitorChaosAction::AgentCrash)];
      }
      return true;
    }
  }
  return false;
}

MonitorChaos::ProbeFate MonitorChaos::probe_fate(wire::NodeId node,
                                                 std::string_view target,
                                                 std::int64_t tick_nanos,
                                                 int attempt,
                                                 bool target_healthy) {
  ProbeFate fate;
  if (!config_.enabled()) return fate;  // strict no-op: no draws, no audit

  const util::SimTime t(tick_nanos);
  for (const auto& o : config_.agent_outages) {
    if (o.node == node && t >= o.start && t < o.end) {
      (o.wedged ? fate.agent_wedged : fate.agent_crashed) = true;
      return fate;
    }
  }
  if (agent_crashed_at(node, t)) {
    fate.agent_crashed = true;
    return fate;
  }

  const auto th = util::fnv1a64(target);
  const auto draw = [&](std::uint64_t tag) {
    return uniform(config_.seed, node.value(), th, tick_nanos, attempt, tag);
  };
  const auto fire = [&](MonitorChaosAction action, std::int64_t detail) {
    audit_.push_back({action, node.value(), std::string(target), tick_nanos,
                      detail});
    ++counts_[static_cast<std::size_t>(action)];
  };

  // Loss stages first: a probe that never replies cannot lie.
  if (config_.probe_drop_rate > 0 && draw(kDrop) < config_.probe_drop_rate) {
    fate.dropped = true;
    fire(MonitorChaosAction::ProbeDrop, attempt);
    return fate;
  }
  if (config_.probe_delay_rate > 0 &&
      draw(kDelay) < config_.probe_delay_rate) {
    fate.delayed = true;
    fire(MonitorChaosAction::ProbeDelay, attempt);
    return fate;
  }
  if (config_.probe_timeout_rate > 0 &&
      draw(kTimeout) < config_.probe_timeout_rate) {
    fate.timed_out = true;
    fire(MonitorChaosAction::ProbeTimeout, attempt);
    return fate;
  }

  const double flip_rate = target_healthy ? config_.false_positive_rate
                                          : config_.false_negative_rate;
  if (flip_rate > 0 && draw(kFlip) < flip_rate) {
    fate.flipped = true;
    fire(target_healthy ? MonitorChaosAction::FalsePositive
                        : MonitorChaosAction::FalseNegative,
         attempt);
  }
  return fate;
}

bool MonitorChaos::metric_frozen(wire::NodeId node, std::string_view resource,
                                 util::SimTime t) {
  if (config_.metric_freeze_rate <= 0) return false;
  const auto th = util::fnv1a64(resource);
  const std::int64_t second = t.nanos() / 1'000'000'000;
  const int window = std::max(1, config_.metric_freeze_seconds);
  for (std::int64_t onset = std::max<std::int64_t>(0, second - window + 1);
       onset <= second; ++onset) {
    if (uniform(config_.seed, node.value(), th, onset, 0, kFreezeOnset) <
        config_.metric_freeze_rate) {
      // One audited injection per lost sample, so tests can reconcile the
      // monitor's skipped-sample counter against the audit exactly.
      audit_.push_back({MonitorChaosAction::MetricFreeze, node.value(),
                        std::string(resource), t.nanos(), onset});
      ++counts_[static_cast<std::size_t>(MonitorChaosAction::MetricFreeze)];
      return true;
    }
  }
  return false;
}

double MonitorChaos::jitter(wire::NodeId node, std::string_view target,
                            std::int64_t tick_nanos, int attempt) const {
  return uniform(config_.seed, node.value(), util::fnv1a64(target), tick_nanos,
                 attempt, kJitter);
}

ProbeEngine::ProbeEngine(ProbeConfig config, MonitorChaosConfig chaos)
    : config_(config), chaos_(std::move(chaos)) {}

double ProbeEngine::backoff_ms(wire::NodeId node, std::string_view dependency,
                               std::int64_t tick, int attempt) const {
  const double exp =
      config_.backoff_base_ms * std::ldexp(1.0, std::min(attempt, 30));
  const double capped = std::min(exp, config_.backoff_cap_ms);
  // Full jitter on the top half keeps retries desynchronized while the
  // schedule stays exactly reproducible for a fixed seed.
  return capped * (0.5 + 0.5 * chaos_.jitter(node, dependency, tick, attempt));
}

ProbeObservation ProbeEngine::probe(wire::NodeId node,
                                    std::string_view dependency,
                                    bool truth_up, util::SimTime t) {
  ++stats_.probes;
  auto& state = targets_[{node.value(), std::string(dependency)}];

  // Circuit breaker: an open breaker sheds probes (Unknown evidence) until
  // its cooldown elapses, then half-opens for a single trial probe.
  if (state.breaker == BreakerState::Open) {
    if (state.open_polls_left > 0) {
      --state.open_polls_left;
      ++stats_.breaker_skips;
      return {.up = state.reported_up, .usable = false,
              .evidence = EvidenceStatus::Unknown, .elapsed_ms = 0.0};
    }
    state.breaker = BreakerState::HalfOpen;
  }

  const std::int64_t tick = t.nanos();
  double elapsed_ms = 0.0;
  const int attempts_allowed =
      state.breaker == BreakerState::HalfOpen ? 1 : config_.retries + 1;

  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    ++stats_.attempts;
    if (attempt > 0) {
      ++stats_.retries;
      elapsed_ms += backoff_ms(node, dependency, tick, attempt - 1);
    }
    const auto fate =
        chaos_.probe_fate(node, dependency, tick, attempt, truth_up);

    if (fate.agent_crashed) {
      // Connection refused: fails fast, costs (almost) nothing.
      ++stats_.drops;
      continue;
    }
    if (fate.agent_wedged || fate.delayed || fate.timed_out) {
      elapsed_ms += config_.timeout_ms;
      ++stats_.timeouts;
      continue;
    }
    if (fate.dropped) {
      // No reply ever arrives; the prober waits out the full deadline.
      elapsed_ms += config_.timeout_ms;
      ++stats_.drops;
      continue;
    }

    // A reply arrived.  Chaos may have flipped its verdict.
    bool observed_up = truth_up;
    if (fate.flipped) {
      observed_up = !observed_up;
      ++stats_.false_results;
    }

    state.consecutive_failures = 0;
    if (state.breaker == BreakerState::HalfOpen) {
      state.breaker = BreakerState::Closed;
    }

    // Flap suppression: the reported state only switches after
    // `flap_hysteresis` consecutive observations agree on the change.
    EvidenceStatus evidence =
        attempt == 0 ? EvidenceStatus::Confirmed : EvidenceStatus::Suspected;
    if (observed_up != state.reported_up) {
      if (observed_up == state.candidate_up) {
        ++state.candidate_streak;
      } else {
        state.candidate_up = observed_up;
        state.candidate_streak = 1;
      }
      if (state.candidate_streak >= std::max(1, config_.flap_hysteresis)) {
        state.reported_up = observed_up;
        state.candidate_streak = 0;
      } else {
        // Held by hysteresis: keep reporting the old state, flag the
        // pending change as Suspected.
        ++stats_.flap_suppressed;
        return {.up = state.reported_up, .usable = true,
                .evidence = EvidenceStatus::Suspected, .flap_held = true,
                .elapsed_ms = elapsed_ms};
      }
    } else {
      state.candidate_up = observed_up;
      state.candidate_streak = 0;
    }
    return {.up = state.reported_up, .usable = true, .evidence = evidence,
            .elapsed_ms = elapsed_ms};
  }

  // Every attempt failed: the probe yields no usable evidence and the
  // breaker accumulates a failure.
  ++stats_.probe_failures;
  ++state.consecutive_failures;
  if (state.breaker == BreakerState::HalfOpen ||
      state.consecutive_failures >= std::max(1, config_.breaker_open_after)) {
    if (state.breaker != BreakerState::Open) ++stats_.breaker_trips;
    state.breaker = BreakerState::Open;
    state.open_polls_left = std::max(1, config_.breaker_open_polls);
    state.consecutive_failures = 0;
  }
  return {.up = state.reported_up, .usable = false,
          .evidence = EvidenceStatus::Unknown, .elapsed_ms = elapsed_ms};
}

}  // namespace gretel::monitor
