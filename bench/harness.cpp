#include "bench/harness.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "stack/workflow.h"

namespace gretel::bench {

BenchEnv BenchEnv::make(double fraction, std::uint64_t seed) {
  BenchEnv env{tempest::TempestCatalog::build(seed, fraction),
               stack::Deployment::standard(3), core::TrainingReport{}};
  env.training = core::learn_fingerprints(env.catalog, env.deployment);
  return env;
}

core::Analyzer::Options BenchEnv::analyzer_options(double p_rate) const {
  core::Analyzer::Options opt;
  opt.config.fp_max = training.fp_max;
  opt.config.p_rate = p_rate;
  opt.run_root_cause = false;
  return opt;
}

double PrecisionRun::detection_rate() const {
  if (faults.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& f : faults) n += f.detected;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

double PrecisionRun::identification_rate() const {
  if (faults.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& f : faults) n += f.identified;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

double PrecisionRun::avg_theta() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& f : faults) {
    if (f.detected) {
      sum += f.theta;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double PrecisionRun::avg_matched() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& f : faults) {
    if (f.detected) {
      sum += static_cast<double>(f.matched);
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double PrecisionRun::avg_candidates() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& f : faults) {
    if (f.detected) {
      sum += static_cast<double>(f.candidates);
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

PrecisionRun run_precision(BenchEnv& env,
                           const tempest::GeneratedWorkload& workload,
                           const RunConfig& config) {
  PrecisionRun result;

  // Capture the workload's wire traffic.
  stack::WorkflowExecutor::Options exec_options;
  exec_options.emit_correlation_ids = config.correlation_ids;
  stack::WorkflowExecutor executor(&env.deployment, &env.catalog.apis(),
                                   &env.catalog.infra(),
                                   config.executor_seed, exec_options);
  const auto records = executor.execute(workload.launches);
  if (records.empty()) return result;

  const double span =
      (records.back().ts - records.front().ts).to_seconds();
  result.p_rate = span > 0 ? static_cast<double>(records.size()) / span
                           : 1000.0;

  auto options = env.analyzer_options(std::max(result.p_rate, 150.0));
  options.config.match_rpc = config.match_rpc;
  core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                          &env.deployment, options);

  const auto start = std::chrono::steady_clock::now();
  for (const auto& r : records) {
    analyzer.on_wire(r);
    result.wire_bytes += r.bytes.size();
  }
  analyzer.finish();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.events = analyzer.detector_stats().events;

  // Map each diagnosis to the ground-truth faulty instance whose error
  // *anchors* it (the error event on the offending API); overlapping fault
  // windows carry foreign errors, so containment alone would attribute a
  // report to the wrong fault.  Containment fills the gaps afterwards.
  std::unordered_map<std::uint32_t, const core::FaultReport*> by_instance;
  for (const auto& d : analyzer.diagnoses()) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      if (ev.api != d.fault.offending_api) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }
  for (const auto& d : analyzer.diagnoses()) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }

  for (auto launch_idx : workload.faulty_launch_idx) {
    FaultOutcome outcome;
    // A fresh executor assigns instance i+1 to launches[i].
    const auto instance = static_cast<std::uint32_t>(launch_idx + 1);
    const auto it = by_instance.find(instance);
    if (it != by_instance.end()) {
      const auto& fault = *it->second;
      outcome.detected = true;
      outcome.matched = fault.matched_fingerprints.size();
      outcome.candidates = fault.candidates;
      outcome.theta = fault.theta;
      outcome.beta_final = fault.beta_final;
      const auto truth = workload.launches[launch_idx].op->id;
      for (auto idx : fault.matched_fingerprints) {
        outcome.identified =
            outcome.identified || env.training.db.get(idx).op == truth;
      }
    }
    result.faults.push_back(outcome);
  }
  return result;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

unsigned host_cpus() { return std::thread::hardware_concurrency(); }

namespace {

const char* compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool build_optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool build_ndebug() {
#if defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace

void write_bench_meta(std::FILE* f, const BenchRunMeta& meta) {
  std::fprintf(f,
               "  \"meta\": {\n"
               "    \"benchmark\": \"%s\",\n"
               "    \"schema_version\": %d,\n"
               "    \"events_measured\": %zu,\n"
               "    \"pool_records\": %zu,\n"
               "    \"host_cpus\": %u,\n"
               "    \"compiler\": \"%s\",\n"
               "    \"optimized\": %s,\n"
               "    \"ndebug\": %s\n"
               "  }",
               meta.benchmark.c_str(), meta.schema_version,
               meta.events_measured, meta.pool_records,
               host_cpus(), compiler_string(),
               build_optimized() ? "true" : "false",
               build_ndebug() ? "true" : "false");
}

}  // namespace gretel::bench
