#include "campaign/orchestrator.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <unordered_map>

#include "gretel/analyzer.h"
#include "monitor/metrics.h"
#include "net/chaos.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "util/seed.h"

namespace gretel::campaign {

using util::SeedStream;
using util::SimDuration;
using util::SimTime;
using util::derive_seed;

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::Localized: return "localized";
    case Outcome::Missed: return "missed";
    case Outcome::Misattributed: return "misattributed";
    case Outcome::Crashed: return "crashed";
  }
  return "unknown";
}

namespace {

// Applies the scenario's environmental perturbation to a fresh deployment.
void apply_env(stack::Deployment& deployment, const EnvFault& env,
               double window_s) {
  if (env.kind == EnvFault::Kind::None) return;
  const auto start = SimTime::epoch() + SimDuration::seconds(env.start_s);
  const double dur =
      env.duration_s > 0.0 ? env.duration_s : window_s + 120.0;
  const auto end = start + SimDuration::seconds(dur);
  switch (env.kind) {
    case EnvFault::Kind::None:
      break;
    case EnvFault::Kind::CpuSurge:
      deployment.inject_cpu_surge(env.service, start, end, env.intensity);
      break;
    case EnvFault::Kind::DiskExhaustion:
      deployment.inject_disk_exhaustion(env.service, start, end,
                                        env.intensity);
      break;
    case EnvFault::Kind::DaemonCrash:
      deployment.crash_software(env.service, env.daemon, start, end);
      break;
    case EnvFault::Kind::LinkLatency:
      deployment.inject_link_latency(env.service, start, end,
                                     SimDuration::millis(env.intensity));
      break;
  }
}

// Did the analyzer pin the expected environmental cause?  Matches on
// node-of-service plus the cause vocabulary the root-cause engine emits
// (resource detail prefixes, daemon names for software failures).
bool env_cause_found(const stack::Deployment& deployment, const EnvFault& env,
                     const std::vector<core::Diagnosis>& diagnoses) {
  const auto nodes = deployment.nodes_for(env.service);
  const auto on_env_node = [&](wire::NodeId n) {
    return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
  };
  for (const auto& d : diagnoses) {
    for (const auto& c : d.root_cause.causes) {
      if (!on_env_node(c.node)) continue;
      switch (env.kind) {
        case EnvFault::Kind::CpuSurge:
          if (c.kind == core::CauseKind::ResourceAnomaly &&
              c.detail.find("cpu") != std::string::npos)
            return true;
          break;
        case EnvFault::Kind::DiskExhaustion:
          if (c.kind == core::CauseKind::ResourceAnomaly &&
              c.detail.find("disk") != std::string::npos)
            return true;
          break;
        case EnvFault::Kind::DaemonCrash:
          if (c.kind == core::CauseKind::SoftwareFailure &&
              c.detail == env.daemon)
            return true;
          break;
        default:
          break;
      }
    }
  }
  return false;
}

bool any_cause(const std::vector<core::Diagnosis>& diagnoses) {
  for (const auto& d : diagnoses) {
    if (!d.root_cause.causes.empty()) return true;
  }
  return false;
}

}  // namespace

CampaignOrchestrator::CampaignOrchestrator(
    const tempest::TempestCatalog* catalog,
    const core::TrainingReport* training, CampaignPlan plan)
    : catalog_(catalog), training_(training), plan_(plan) {}

ScenarioResult CampaignOrchestrator::run_guarded(
    const ScenarioSpec& spec) const {
  ScenarioResult result;
  result.id = spec.id;
  result.fault_class = spec.fault_class;
  result.faults_total = spec.faults.size();
  result.env_expected = spec.has_env();

  const auto& catalog = *catalog_;
  auto deployment = stack::Deployment::standard(3);
  apply_env(deployment, spec.env, spec.window_s);

  // Background mix, faults riding on top.  The generator owns fault
  // placement, so the workload itself is sampled fault-free.
  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = spec.concurrent_tests;
  wspec.faults = 0;
  wspec.window = SimDuration::seconds(spec.window_s);
  wspec.seed = derive_seed(spec.seed, SeedStream::Workload);
  auto workload = tempest::make_parallel_workload(catalog, wspec);
  for (const auto& f : spec.faults) {
    workload.faulty_launch_idx.push_back(workload.launches.size());
    workload.launches.push_back(
        {&catalog.operation(f.op_index),
         SimTime::epoch() + SimDuration::seconds(f.start_offset_s),
         stack::fault_for_status(f.fail_step, f.status)});
  }

  stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                   &catalog.infra(),
                                   derive_seed(spec.seed,
                                               SeedStream::Executor));
  const auto records = executor.execute(workload.launches);
  if (records.empty()) {
    result.outcome = Outcome::Crashed;
    result.note = "empty capture";
    return result;
  }

  // Wire-substrate chaos, with exact audit/counter reconciliation.
  std::vector<net::WireRecord> degraded;
  degraded.reserve(records.size());
  net::ChaosTap tap(spec.wire,
                    [&](const net::WireRecord& r) { degraded.push_back(r); });
  for (const auto& r : records) tap.on_record(r);
  tap.finish();
  const auto& cs = tap.stats();
  if (cs.records_in != records.size() ||
      cs.records_out != degraded.size() ||
      cs.records_in - cs.total_dropped() + cs.duplicated !=
          cs.records_out) {
    result.outcome = Outcome::Crashed;
    result.note = "wire chaos counter reconciliation failed";
    return result;
  }
  const auto& audit = tap.audit();
  result.audit_shed += audit.dropped();
  if (audit.dropped() == 0) {
    // Entry list is complete: per-action audit totals must equal stats.
    std::uint64_t per_action[9] = {};
    for (const auto& inj : audit)
      ++per_action[static_cast<std::size_t>(inj.action)];
    const bool ok =
        per_action[0] == cs.dropped_uniform &&
        per_action[1] == cs.dropped_burst && per_action[2] == cs.truncated &&
        per_action[3] == cs.corrupted && per_action[4] == cs.duplicated &&
        per_action[5] == cs.reordered && per_action[7] == cs.stalls &&
        per_action[8] == cs.dropped_stall;
    if (!ok) {
      result.outcome = Outcome::Crashed;
      result.note = "wire chaos audit reconciliation failed";
      return result;
    }
  }

  // Event budget: a campaign cannot let one pathological scenario starve
  // the sweep, so the analyzed stream is clipped (in arrival order — the
  // tail is what a saturated pipeline would shed last).
  if (plan_.budget_events > 0 && degraded.size() > plan_.budget_events) {
    degraded.resize(plan_.budget_events);
    result.budget_truncated = true;
  }
  result.events = degraded.size();

  const double span = degraded.empty()
                          ? 0.0
                          : (degraded.back().ts - degraded.front().ts)
                                .to_seconds();
  const double p_rate =
      span > 0 ? static_cast<double>(degraded.size()) / span : 150.0;

  core::Analyzer::Options opt;
  opt.config.fp_max = training_->fp_max;
  opt.config.p_rate = std::max(p_rate, 150.0);
  opt.run_root_cause = true;
  if (spec.monitor.enabled()) {
    opt.probed_monitoring = true;
    opt.monitor_chaos = spec.monitor;
  }

  // Streaming execution reuses the exact batch pipeline behind the
  // StreamAnalyzer front end; scoring below reads whichever diagnosis set
  // the chosen path produced.
  std::optional<core::Analyzer> batch;
  std::optional<stream::StreamAnalyzer> streamer;
  std::vector<core::Diagnosis> streamed;
  util::SimTime first_report_at;
  bool saw_report = false;
  if (plan_.stream) {
    streamer.emplace(&training_->db, &catalog.apis(), &deployment, opt,
                     [&](const stream::StreamReport& r) {
                       if (!saw_report) {
                         saw_report = true;
                         first_report_at = r.emitted_at;
                       }
                       streamed.push_back(r.diagnosis);
                     },
                     *plan_.stream);
  } else {
    batch.emplace(&training_->db, &catalog.apis(), &deployment, opt);
  }
  core::Analyzer& analyzer = plan_.stream ? streamer->analyzer() : *batch;

  monitor::ResourceMonitor mon(&deployment, SimDuration::seconds(1),
                               derive_seed(spec.seed, SeedStream::Metrics));
  mon.sample_range(SimTime::epoch(),
                   records.back().ts + SimDuration::seconds(3),
                   analyzer.metrics());

  if (plan_.stream) {
    for (const auto& r : degraded) {
      streamer->advance_to(r.ts);
      streamer->offer(r);
    }
    streamer->finish();
    const auto& sc = streamer->counters();
    result.stream_ticks = sc.ticks;
    result.stream_shed = sc.shed;
    // Flow reconciliation: every offered record is ingested or shed, and
    // finish() left nothing queued.  A mismatch means the admission
    // bookkeeping lied — a Crashed outcome like the other ledgers.
    if (sc.offered != sc.ingested + sc.shed || streamer->queued() != 0) {
      result.outcome = Outcome::Crashed;
      result.note = "stream shed/ingest reconciliation failed";
      return result;
    }
    if (saw_report && !spec.faults.empty()) {
      double first_fault_s = spec.faults.front().start_offset_s;
      for (const auto& f : spec.faults)
        first_fault_s = std::min(first_fault_s, f.start_offset_s);
      const auto injected =
          SimTime::epoch() +
          SimDuration::nanos(static_cast<std::int64_t>(first_fault_s * 1e9));
      result.first_report_latency_ms =
          std::max(0.0, (first_report_at - injected).to_millis());
    }
  } else {
    for (const auto& r : degraded) analyzer.on_wire(r);
    analyzer.finish();
  }

  // Decode-side reconciliation: every quarantined frame must trace back to
  // an injected truncation/corruption, and the detector's loss count must
  // be exactly the quarantined frames plus the records the stream shed (0
  // in batch runs).  (No lower bound: a cut or byte flip that only touches
  // bytes the codec never reads decodes cleanly.  The upper bound admits
  // duplicates — a duplicated damaged frame fails decode once per
  // delivered copy.)
  const auto decode_failures = analyzer.tap_stats().decode_failures;
  const auto losses = analyzer.detector_stats().losses_recorded;
  if (decode_failures > cs.truncated + cs.corrupted + cs.duplicated ||
      losses != decode_failures + result.stream_shed) {
    result.outcome = Outcome::Crashed;
    result.note = "decode/quarantine reconciliation failed: " +
                  std::to_string(decode_failures) + " failures vs " +
                  std::to_string(cs.truncated) + " truncated + " +
                  std::to_string(cs.corrupted) + " corrupted, " +
                  std::to_string(losses) + " losses vs " +
                  std::to_string(result.stream_shed) + " shed";
    return result;
  }

  // Monitoring-plane reconciliation (probed runs): the probe counters must
  // account for exactly the injections the chaos engine recorded.
  if (opt.probed_monitoring) {
    const auto ps = analyzer.watcher().probe_stats();
    const auto& w = analyzer.watcher();
    using MA = monitor::MonitorChaosAction;
    const bool ok =
        ps.drops == w.chaos_count(MA::ProbeDrop) &&
        ps.timeouts ==
            w.chaos_count(MA::ProbeTimeout) + w.chaos_count(MA::ProbeDelay) &&
        ps.false_results == w.chaos_count(MA::FalsePositive) +
                                w.chaos_count(MA::FalseNegative);
    if (!ok) {
      result.outcome = Outcome::Crashed;
      result.note = "monitor chaos counter reconciliation failed";
      return result;
    }
    result.audit_shed += w.chaos_audit_dropped();
  }

  const auto& diagnoses = plan_.stream ? streamed : analyzer.diagnoses();
  result.diagnoses = diagnoses.size();
  result.fingerprint =
      report_fingerprint(diagnoses, catalog.apis(), training_->db);

  // Per-fault scoring via ground-truth instance labels (a fresh executor
  // assigns instance i+1 to launches[i]); error anchoring first so
  // overlapping windows cannot steal each other's reports.
  std::unordered_map<std::uint32_t, const core::FaultReport*> by_instance;
  for (const auto& d : diagnoses) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      if (ev.api != d.fault.offending_api) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }
  for (const auto& d : diagnoses) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }
  for (auto launch_idx : workload.faulty_launch_idx) {
    const auto it =
        by_instance.find(static_cast<std::uint32_t>(launch_idx + 1));
    if (it == by_instance.end()) continue;
    ++result.faults_detected;
    const auto truth = workload.launches[launch_idx].op->id;
    for (auto idx : it->second->matched_fingerprints) {
      if (training_->db.get(idx).op == truth) {
        ++result.faults_identified;
        break;
      }
    }
  }

  if (spec.has_env())
    result.env_localized = env_cause_found(deployment, spec.env, diagnoses);

  // Link latency is a recognized blind spot — no resource metric or
  // watcher observes it, so the class is scored on workload-fault
  // localization alone and the coverage report surfaces env_localized.
  const bool env_scoreable =
      spec.has_env() && spec.env.kind != EnvFault::Kind::LinkLatency;

  if (result.faults_detected < result.faults_total) {
    result.outcome = Outcome::Missed;
  } else if (result.faults_identified < result.faults_detected) {
    result.outcome = Outcome::Misattributed;
  } else if (env_scoreable && !result.env_localized) {
    result.outcome =
        any_cause(diagnoses) ? Outcome::Misattributed : Outcome::Missed;
  } else {
    result.outcome = Outcome::Localized;
  }
  return result;
}

ScenarioResult CampaignOrchestrator::run(const ScenarioSpec& spec) const {
  try {
    return run_guarded(spec);
  } catch (const std::exception& e) {
    ScenarioResult result;
    result.id = spec.id;
    result.fault_class = spec.fault_class;
    result.faults_total = spec.faults.size();
    result.env_expected = spec.has_env();
    result.outcome = Outcome::Crashed;
    result.note = e.what();
    return result;
  }
}

std::vector<ScenarioResult> CampaignOrchestrator::run_all(
    std::span<const ScenarioSpec> specs) const {
  std::vector<ScenarioResult> out;
  out.reserve(specs.size());
  for (const auto& spec : specs) out.push_back(run(spec));
  return out;
}

}  // namespace gretel::campaign
