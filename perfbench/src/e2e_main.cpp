// End-to-end benchmark: wire bytes in -> Diagnosis out, with a per-layer
// breakdown from a separate traced run.  See perfbench/README.md.
//
//   perfbench_e2e --workload dense-ops|sparse-ops|stream-durable
//                 --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics through the public entry points
// (Analyzer::on_wire_batch, or StreamAnalyzer::offer/advance_to with the
// durable journal).  --trace 1 composes the same pipeline from its layers'
// public classes, times each call into them from this file, and reports the
// per-layer metrics.  Both print a human-readable table, then one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of stdout.
// Operations are the injected faults; a failed operation is a fault no
// diagnosis names.  Any correctness-gate failure exits non-zero.
#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "campaign/fingerprint.h"
#include "gretel/analyzer.h"
#include "gretel/json_export.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "persist/journal.h"
#include "stack/workflow.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "util/seed.h"

namespace {

using namespace gretel;
using perfbench::SpanTracer;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int faults;       // injected operational faults per capture
  long horizon_s;   // simulated capture length
  int tests;        // concurrent background Tempest tests
  bool cpu_surge;   // environment fault on the compute nodes
  bool streaming;   // StreamAnalyzer + durability, metrics streamed
};

// Sizes: see perfbench/workloads.json.  The batch captures keep the
// Fig. 8c shape (400 concurrent tests over 60 s, about 47.5 K fault-free
// records); the stream session spans ten simulated minutes (about 465 K
// fault-free records).  Fault counts are fixed so that the density is 1
// per 100, 1 per 2000 and 1 per 1000 fault-free records on average; a
// count sized per seed would shift every capture of a run at once.
constexpr WorkloadSpec kWorkloads[] = {
    {"dense-ops", 475, 60, 400, false, false},
    {"sparse-ops", 24, 60, 400, false, false},
    {"stream-durable", 465, 600, 4000, true, true},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The CPU surge covers the horizon except the first and last 30 s, at an
// intensity past the absolute "CPU pegged" health rule.
constexpr double kSurgePct = 90.0;
constexpr long kSurgeMarginS = 30;

// ---------------------------------------------------------------------------
// Environment (catalog + trained fingerprint DB) and captures
// ---------------------------------------------------------------------------

struct Env {
  tempest::TempestCatalog catalog;
  core::TrainingReport training;
  std::vector<wire::OpTemplateId> op_of_fingerprint;
};

std::unique_ptr<Env> make_env() {
  auto env = std::make_unique<Env>(
      Env{tempest::TempestCatalog::build(), core::TrainingReport{}, {}});
  auto deployment = stack::Deployment::standard(3);
  env->training = core::learn_fingerprints(env->catalog, deployment);
  for (std::size_t i = 0; i < env->training.db.size(); ++i)
    env->op_of_fingerprint.push_back(
        env->training.db.get(static_cast<core::FingerprintDb::Index>(i)).op);
  return env;
}

struct MetricSample {
  wire::NodeId node;
  net::ResourceKind kind;
  double t = 0.0;
  double value = 0.0;
};

struct Capture {
  std::unique_ptr<stack::Deployment> deployment;
  std::vector<net::WireRecord> records;
  std::vector<perfbench::InjectedFault> faults;
  std::vector<MetricSample> metrics;  // collectd samples, time-ordered
  std::vector<wire::NodeId> env_nodes;  // nodes under the CPU surge
  double p_rate = 150.0;
};

std::unique_ptr<stack::Deployment> make_deployment(const WorkloadSpec& w) {
  auto d = std::make_unique<stack::Deployment>(stack::Deployment::standard(3));
  if (w.cpu_surge) {
    const auto start =
        util::SimTime::epoch() + util::SimDuration::seconds(kSurgeMarginS);
    const auto end = util::SimTime::epoch() +
                     util::SimDuration::seconds(w.horizon_s - kSurgeMarginS);
    d->inject_cpu_surge(wire::ServiceKind::NovaCompute, start, end,
                        kSurgePct);
  }
  return d;
}

Capture make_capture(const Env& env, const WorkloadSpec& w,
                     std::uint64_t seed) {
  Capture c;
  c.deployment = make_deployment(w);
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = w.tests;
  spec.faults = w.faults;
  spec.window = util::SimDuration::seconds(w.horizon_s);
  spec.seed = util::derive_seed(seed, util::SeedStream::Workload);
  const auto workload = tempest::make_parallel_workload(env.catalog, spec);
  stack::WorkflowExecutor executor(
      c.deployment.get(), &env.catalog.apis(), &env.catalog.infra(),
      util::derive_seed(seed, util::SeedStream::Executor));
  c.records = executor.execute(workload.launches);
  for (auto idx : workload.faulty_launch_idx) {
    c.faults.push_back({static_cast<std::uint32_t>(idx + 1),
                        workload.launches[idx].op->id});
  }
  if (!c.records.empty()) {
    const double span =
        (c.records.back().ts - c.records.front().ts).to_seconds();
    if (span > 0)
      c.p_rate = std::max(150.0, static_cast<double>(c.records.size()) / span);
    monitor::ResourceMonitor mon(c.deployment.get(),
                                 util::SimDuration::seconds(1),
                                 util::derive_seed(seed,
                                                   util::SeedStream::Metrics));
    mon.sample_range(util::SimTime::epoch(),
                     c.records.back().ts + util::SimDuration::seconds(3),
                     [&](wire::NodeId n, net::ResourceKind k, double t,
                         double v) { c.metrics.push_back({n, k, t, v}); });
    std::stable_sort(c.metrics.begin(), c.metrics.end(),
                     [](const MetricSample& a, const MetricSample& b) {
                       return a.t < b.t;
                     });
  }
  if (w.cpu_surge)
    c.env_nodes = c.deployment->nodes_for(wire::ServiceKind::NovaCompute);
  return c;
}

// The analyzer's default serial config; only the DB-derived bound and the
// capture's packet rate are set, as every tool and bench in the repo does.
core::Analyzer::Options analyzer_options(const Env& env, const Capture& c) {
  core::Analyzer::Options opt;
  opt.config.fp_max = env.training.fp_max;
  opt.config.p_rate = c.p_rate;
  opt.run_root_cause = true;
  return opt;
}

void preload_metrics(const Capture& c, monitor::MetricsStore& store) {
  for (const auto& m : c.metrics) store.record(m.node, m.kind, m.t, m.value);
}

std::uint64_t digest(const Env& env,
                     const std::vector<core::Diagnosis>& diagnoses) {
  return campaign::report_fingerprint(diagnoses, env.catalog.apis(),
                                      env.training.db);
}

// ---------------------------------------------------------------------------
// Process facts
// ---------------------------------------------------------------------------

long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':')
      return std::strtol(line.c_str() + n + 1, nullptr, 10);
  }
  return -1;
}

double rss_mb() {
  return static_cast<double>(proc_status_field("VmRSS")) / 1024.0;
}

const char* fs_name(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794C7630ul: return "overlayfs";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// Untraced runs through the public entry points
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<core::Diagnosis> diagnoses;
  std::vector<double> latencies_ms;
  double seconds = 0.0;  // first record offered -> finish() returned
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  double rss_growth_mb = 0.0;
  // Streaming only.
  stream::StreamCounters counters;
  std::size_t queued_after_finish = 0;
  std::size_t peak_state_bytes = 0;
  std::size_t metric_points = 0;
};

// Batch: Analyzer::on_wire_batch fed one ingest_batch chunk per call, the
// tcpreplay-at-max-speed closed loop.  Latency runs from the start of the
// call during which the diagnosis reached the sink.
RunResult run_batch(const Env& env, const Capture& c) {
  RunResult res;
  std::int64_t call_start = 0;
  auto opt = analyzer_options(env, c);
  opt.diagnosis_sink = [&](const core::Diagnosis& d) {
    const auto t = now_ns();
    perfbench::AllocPause pause;
    res.latencies_ms.push_back(static_cast<double>(t - call_start) * 1e-6);
    res.diagnoses.push_back(d);
  };
  const double rss0 = rss_mb();
  core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                          c.deployment.get(), opt);
  preload_metrics(c, analyzer.metrics());
  const auto t0 = now_ns();
  const auto a0 = perfbench::alloc_count();
  const std::size_t chunk = std::max<std::size_t>(1, opt.config.ingest_batch);
  const std::span<const net::WireRecord> all(c.records);
  for (std::size_t i = 0; i < all.size(); i += chunk) {
    call_start = now_ns();
    analyzer.on_wire_batch(all.subspan(i, std::min(chunk, all.size() - i)));
  }
  call_start = now_ns();
  analyzer.finish();
  res.seconds = seconds_between(t0, now_ns());
  res.allocs = perfbench::alloc_count() - a0;
  res.records = c.records.size();
  res.rss_growth_mb = rss_mb() - rss0;
  return res;
}

// Span layers of the traced runs.  kRoot wraps a whole replay, so its self
// time is what no layer accounts for.
enum Layer : std::uint16_t {
  kRoot,
  kDecode,
  kIngest,
  kSnapshotMatch,
  kRca,
  kSink,
  kOffer,
  kAdvanceIdle,  // advance_to calls that ran no tick
  kAdvanceTick,  // advance_to calls that ran at least one tick
  kOnMetric,
  kFinish,
  kCheckpoint,
  kLayerCount
};

struct Tracer {
  SpanTracer spans;
  std::size_t begin(Layer l) {
    return spans.begin(l, now_ns(), perfbench::alloc_count());
  }
  void end() { spans.end(now_ns(), perfbench::alloc_count()); }
};

// RAII span that is a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* t, Layer l) : t_(t) {
    if (t_) idx_ = t_->begin(l);
  }
  ~Scope() {
    if (t_) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t index() const { return idx_; }

 private:
  Tracer* t_;
  std::size_t idx_ = 0;
};

struct CheckpointSample {
  double at_fraction = 0.0;
  double ms = 0.0;
  std::uintmax_t bytes = 0;
};

std::uintmax_t newest_checkpoint_bytes(const std::string& dir) {
  std::string newest;
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const auto name = e.path().filename().string();
    if (e.path().extension() == ".grtckp" && name > newest) {
      newest = name;
      bytes = e.file_size();
    }
  }
  return bytes;
}

// Streaming: StreamAnalyzer with the durable journal and 5 s checkpoints
// under `dir`; metrics interleaved with records by timestamp through
// on_metric.  With a tracer, also writes checkpoints at fixed stream
// positions (`checkpoints`) and times them.
RunResult run_stream(const Env& env, const Capture& c, const std::string& dir,
                     Tracer* tracer, std::vector<CheckpointSample>* checkpoints) {
  RunResult res;
  std::int64_t call_start = 0;
  fs::remove_all(dir);
  const double rss0 = rss_mb();
  stream::StreamAnalyzer sa(
      &env.training.db, &env.catalog.apis(), c.deployment.get(),
      analyzer_options(env, c), [&](const stream::StreamReport& r) {
        const auto t = now_ns();
        Scope sink(tracer, kSink);
        perfbench::AllocPause pause;
        res.latencies_ms.push_back(static_cast<double>(t - call_start) * 1e-6);
        res.diagnoses.push_back(r.diagnosis);
      });
  if (!sa.enable_durability(dir)) {
    std::fprintf(stderr, "error: cannot open journal under %s\n", dir.c_str());
    std::exit(1);
  }
  const auto t0 = now_ns();
  const auto a0 = perfbench::alloc_count();

  const std::size_t n = c.records.size();
  const std::size_t kPositions = 4;
  std::size_t next_ckp = 1;
  std::size_t mi = 0;
  {
    Scope root(tracer, kRoot);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = c.records[i];
      const double ts = r.ts.to_seconds();
      for (; mi < c.metrics.size() && c.metrics[mi].t <= ts; ++mi) {
        const auto& m = c.metrics[mi];
        Scope span(tracer, kOnMetric);
        sa.on_metric(m.node, m.kind, m.t, m.value);
      }
      {
        const auto ticks = sa.counters().ticks;
        call_start = now_ns();
        Scope span(tracer, kAdvanceIdle);
        sa.advance_to(r.ts);
        if (tracer && sa.counters().ticks != ticks)
          tracer->spans.set_layer(span.index(), kAdvanceTick);
      }
      {
        Scope span(tracer, kOffer);
        sa.offer(r);
      }
      if (checkpoints && next_ckp < kPositions &&
          i + 1 == n * next_ckp / kPositions) {
        call_start = now_ns();
        const auto k0 = now_ns();
        {
          Scope span(tracer, kCheckpoint);
          sa.checkpoint_now();
        }
        checkpoints->push_back(
            {static_cast<double>(next_ckp) / kPositions,
             static_cast<double>(now_ns() - k0) * 1e-6,
             newest_checkpoint_bytes(dir)});
        ++next_ckp;
      }
    }
    for (; mi < c.metrics.size(); ++mi) {
      const auto& m = c.metrics[mi];
      Scope span(tracer, kOnMetric);
      sa.on_metric(m.node, m.kind, m.t, m.value);
    }
    call_start = now_ns();
    Scope span(tracer, kFinish);
    sa.finish();
  }
  res.seconds = seconds_between(t0, now_ns());
  res.allocs = perfbench::alloc_count() - a0;
  res.records = n;
  res.rss_growth_mb = rss_mb() - rss0;
  if (checkpoints) {
    // The final checkpoint finish() wrote, at the full horizon.
    checkpoints->push_back({1.0, 0.0, newest_checkpoint_bytes(dir)});
  }
  res.counters = sa.counters();
  res.queued_after_finish = sa.queued();
  res.peak_state_bytes = sa.peak_state_bytes();
  res.metric_points = sa.analyzer().metrics().retained_points();
  return res;
}

// ---------------------------------------------------------------------------
// Traced batch composition
// ---------------------------------------------------------------------------

struct ComposedResult {
  std::vector<core::Diagnosis> diagnoses;
  core::AnomalyDetector::Stats stats;
  net::TapStats tap;
  double seconds = 0.0;
};

// The Analyzer pipeline rebuilt from its public classes, one span per call:
// CaptureTap::decode -> AnomalyDetector::on_event (serial path; identical
// reports to the batched facade) -> RootCauseEngine::analyze over a
// MetricsStore and an oracle DependencyWatcher.  on_event spans that fired
// the fault callback are relabelled as snapshot + match.
ComposedResult run_composed(const Env& env, const Capture& c, Tracer& tr) {
  ComposedResult res;
  const auto opt = analyzer_options(env, c);
  net::CaptureTap tap(&env.catalog.apis(),
                      c.deployment->service_by_port(),
                      std::max<std::size_t>(1, opt.config.decode_arena_kb) *
                          1024);
  monitor::MetricsStore metrics;
  preload_metrics(c, metrics);
  monitor::DependencyWatcher watcher(c.deployment.get());
  core::RootCauseEngine rca(&env.training.db, &env.catalog.apis(),
                            c.deployment.get(), &metrics, &watcher,
                            core::RootCauseEngine::Options::from(opt.config));
  bool fired = false;
  core::AnomalyDetector detector(
      &env.training.db, &env.catalog.apis(), opt.config,
      [&](const core::FaultReport& fault) {
        fired = true;
        core::Diagnosis d;
        d.fault = fault;
        {
          Scope span(&tr, kRca);
          d.root_cause = rca.analyze(fault);
        }
        Scope span(&tr, kSink);
        perfbench::AllocPause pause;
        res.diagnoses.push_back(std::move(d));
      });

  const auto t0 = now_ns();
  {
    Scope root(&tr, kRoot);
    for (const auto& r : c.records) {
      std::optional<wire::Event> event;
      {
        Scope span(&tr, kDecode);
        const auto failures = tap.stats().decode_failures;
        event = tap.decode(r);
        if (const auto delta = tap.stats().decode_failures - failures)
          detector.record_loss(delta);
      }
      if (!event) continue;
      fired = false;
      Scope span(&tr, kIngest);
      detector.on_event(std::move(*event));
      if (fired)
        tr.spans.set_layer(span.index(), kSnapshotMatch);
    }
    Scope span(&tr, kSnapshotMatch);
    detector.flush();
  }
  res.seconds = seconds_between(t0, now_ns());
  res.stats = detector.stats();
  res.tap = tap.stats();
  return res;
}

// ---------------------------------------------------------------------------
// Per-layer aggregation
// ---------------------------------------------------------------------------

constexpr const char* kLayerNames[kLayerCount] = {
    "(unattributed)",        "net.decode",         "gretel.ingest",
    "gretel.snapshot_match", "gretel.rca",         "sink",
    "stream.offer",          "stream.advance_idle", "stream.advance_tick",
    "monitor.on_metric",     "stream.finish",      "persist.checkpoint"};

// Aggregates of every span of one kind of traced run.  The root span's
// self time is the loop around the calls, i.e. what no layer accounts for.
struct LayerStats {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> self_allocs{};
  std::vector<double> rca_us;   // per RCA call
  std::vector<double> tick_us;  // per advance_to call that ran a tick
  // Calls that emitted reports: self ns and how many reports they emitted.
  std::vector<std::pair<std::int64_t, int>> fired;

  void add(const SpanTracer& t) {
    const auto& spans = t.spans();
    std::vector<int> reports(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.layer == kRca && s.parent >= 0) ++reports[s.parent];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      ++calls[s.layer];
      self_ns[s.layer] += s.self_ns();
      self_allocs[s.layer] += s.self_allocs();
      const double us = static_cast<double>(s.self_ns()) * 1e-3;
      if (s.layer == kRca) rca_us.push_back(us);
      if (s.layer == kAdvanceTick) tick_us.push_back(us);
      if (s.layer == kSnapshotMatch) fired.push_back({s.self_ns(), reports[i]});
    }
  }

  std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (auto v : self_ns) t += v;
    return t;
  }
  double ns_per_call(Layer l) const {
    return calls[l] ? static_cast<double>(self_ns[l]) /
                          static_cast<double>(calls[l])
                    : 0.0;
  }
  double allocs_per_call(Layer l) const {
    return calls[l] ? static_cast<double>(self_allocs[l]) /
                          static_cast<double>(calls[l])
                    : 0.0;
  }

  void print(const char* title) const {
    std::printf("%s: layer, calls, self ms, ns/call, allocs/call\n", title);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (!calls[l]) continue;
      std::printf("  %-24s %10" PRIu64 " %12.3f %12.1f %10.3f\n",
                  kLayerNames[l], calls[l],
                  static_cast<double>(self_ns[l]) * 1e-6,
                  ns_per_call(static_cast<Layer>(l)),
                  allocs_per_call(static_cast<Layer>(l)));
    }
  }
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Gate {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("%-36s %20s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics)
    std::printf("%-36s %20.6f  %s\n", m.name.c_str(), m.value, m.unit);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench/work";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") a.trace = std::atoi(val);
    else if (key == "--work-dir") a.work_dir = val;
    else return std::nullopt;
  }
  if (a.workload.empty() || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1))
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  const WorkloadSpec* w = parsed ? find_workload(parsed->workload) : nullptr;
  if (!w) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload dense-ops|sparse-ops|"
                 "stream-durable --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  const Args& args = *parsed;
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  fs::create_directories(args.work_dir);
  const std::string tag = std::to_string(getpid());
  const std::string persist_dir = args.work_dir + "/persist-" + tag;
  const std::string journal_dir = args.work_dir + "/journal-" + tag;

  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w->name, args.seed, args.seconds, args.trace);
  std::printf("host: host_cpus=%u compiler=\"%s\" build_type=%s "
              "persist_fs=%s\n",
              host_cpus, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              fs_name(args.work_dir));

  // ---- Setup: catalog + Algorithm 1 training + analyzer construction ----
  // (+ metric preload on the batch workloads).  Timed kSetupReps times and
  // reported as the median; the first environment is kept for the run.
  // Generating the captures is the benchmark's own work and is not timed.
  constexpr int kSetupReps = 5;
  std::vector<double> setup_samples;
  const auto e0 = now_ns();
  auto env = make_env();
  const double train0 = seconds_between(e0, now_ns());

  auto capture_seed = [&](std::size_t i) {
    return util::derive_seed(args.seed, 0xE2E, i + 1);
  };
  const Capture capture0 = make_capture(*env, *w, capture_seed(0));

  auto construct_seconds = [&](const Env& e) {
    const auto& c = capture0;
    const auto t = now_ns();
    if (w->streaming) {
      stream::StreamAnalyzer sa(&e.training.db, &e.catalog.apis(),
                                c.deployment.get(), analyzer_options(e, c));
      sa.enable_durability(persist_dir);
    } else {
      core::Analyzer a(&e.training.db, &e.catalog.apis(), c.deployment.get(),
                       analyzer_options(e, c));
      preload_metrics(c, a.metrics());
    }
    const double s = seconds_between(t, now_ns());
    fs::remove_all(persist_dir);
    return s;
  };
  setup_samples.push_back(train0 + construct_seconds(*env));
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const auto t = now_ns();
    const auto scratch_env = make_env();
    const double train = seconds_between(t, now_ns());
    setup_samples.push_back(train + construct_seconds(*scratch_env));
  }
  const double setup_s = perfbench::median(setup_samples);
  std::printf("setup samples (s):");
  for (double v : setup_samples) std::printf(" %.3f", v);
  std::printf("\n");

  // ---- Host guard: the default serial analyzer config only ----
  const auto probe_opt = analyzer_options(*env, capture0);
  if (probe_opt.config.num_shards != 1 ||
      probe_opt.config.num_match_workers != 0) {
    std::fprintf(stderr,
                 "refusing: analyzer config is not the default serial one\n");
    return 3;
  }

  Gate gate;
  std::uint64_t attempted = 0, detected = 0, identified = 0, reports = 0,
                localized = 0, replay_records = 0, replay_allocs = 0;
  std::vector<double> latencies, replay_rps;
  double rss_growth = 0.0;
  std::size_t replays = 0;
  std::optional<RunResult> first_stream;  // untraced session of capture 0

  // Quality, ledger and allocation accounting of a capture's first replay.
  auto account = [&](const Capture& c, const RunResult& r) {
    const auto score = perfbench::score_faults(r.diagnoses, c.faults,
                                               env->op_of_fingerprint);
    attempted += score.injected;
    detected += score.detected;
    identified += score.identified;
    reports += r.diagnoses.size();
    localized +=
        perfbench::diagnoses_localized(r.diagnoses, c.env_nodes, "cpu");
    replay_records += r.records;
    replay_allocs += r.allocs;
    gate.check(score.injected > 0, "a capture injected zero faults");
    gate.check(!r.diagnoses.empty(), "a capture produced zero diagnoses");
    if (w->streaming) {
      const auto& k = r.counters;
      gate.check(k.offered == k.ingested + k.shed,
                 "stream ledger: offered != ingested + shed");
      gate.check(r.queued_after_finish == 0,
                 "stream ledger: records still queued after finish()");
      gate.check(k.shed == 0, "stream ledger: records shed at the default "
                              "source ring");
    }
  };
  auto replay = [&](const Capture& c) {
    RunResult r = w->streaming
                      ? run_stream(*env, c, persist_dir, nullptr, nullptr)
                      : run_batch(*env, c);
    fs::remove_all(persist_dir);
    ++replays;
    return r;
  };

  LayerStats batch_layers;
  std::uint64_t quarantined = 0, candidates = 0, matched = 0, beta_sum = 0,
                suppressed = 0, expanded = 0, traced_reports = 0;
  double composed_s = 0.0, facade_s = 0.0;
  std::int64_t composed0_layers_ns = -1;  // net + gretel self, capture 0

  // Traced composition of a capture.  It must reach the batch facade's
  // digest: the replay itself on the batch workloads, a separate batch run
  // on the streaming one, whose own reports are tick-quantized.
  auto trace_composed = [&](const Capture& c, const RunResult& r) {
    const RunResult facade = w->streaming ? run_batch(*env, c) : RunResult{};
    const RunResult& batch = w->streaming ? facade : r;
    Tracer tracer;
    tracer.spans = SpanTracer(2 * c.records.size() + 4096);
    const auto comp = run_composed(*env, c, tracer);
    gate.check(digest(*env, comp.diagnoses) == digest(*env, batch.diagnoses),
               "the traced composition's digest differs from the facade's");
    if (composed0_layers_ns < 0) {
      LayerStats one;
      one.add(tracer.spans);
      composed0_layers_ns = one.self_ns[kDecode] + one.self_ns[kIngest] +
                            one.self_ns[kSnapshotMatch] + one.self_ns[kRca];
    }
    batch_layers.add(tracer.spans);
    composed_s += comp.seconds;
    facade_s += batch.seconds;
    quarantined += comp.tap.decode_failures;
    suppressed += comp.stats.suppressed_triggers;
    for (const auto& d : comp.diagnoses) {
      candidates += d.fault.candidates;
      matched += d.fault.matched_fingerprints.size();
      beta_sum += d.fault.beta_final;
      expanded += d.root_cause.expanded_search;
    }
    traced_reports += comp.diagnoses.size();
  };

  // ---- Closed loop of paired replays ----
  // The host's speed drifts in phases of a few seconds, so every capture
  // is replayed twice, a block of about kBlockSeconds apart: first the
  // block's fresh captures (capture k is seed-derived and generated just
  // before its replay, untimed), then the same captures again, each on a
  // fresh analyzer.  A capture's time is the lower of its two replays and
  // each report's latency the lower of its two measurements; the two
  // replays must reach the same diagnosis digest.  Blocks repeat until
  // --seconds have passed and the latency p95 has kMinSamplesBeyond
  // samples beyond it.  With --trace 1 each first replay is followed by
  // the traced composition of the same capture.
  constexpr double kBlockSeconds = 3.0;
  struct FirstReplay {
    std::size_t index;
    std::uint64_t digest;
    std::vector<double> latencies_ms;
    double seconds;
    std::uint64_t records;
  };
  const std::size_t min_samples = perfbench::min_samples_for(0.95);
  const auto m0 = now_ns();
  auto done = [&] {
    const double elapsed = seconds_between(m0, now_ns());
    if (elapsed > 4.0 * args.seconds + 60.0) return true;  // gated below
    return elapsed >= args.seconds && latencies.size() >= min_samples;
  };
  auto capture_at = [&](std::size_t k, std::optional<Capture>& slot)
      -> const Capture& {
    if (k == 0) return capture0;
    slot.emplace(make_capture(*env, *w, capture_seed(k)));
    return *slot;
  };

  std::size_t next_capture = 0;
  while (!done()) {
    std::vector<FirstReplay> block;
    const auto b0 = now_ns();
    do {
      const std::size_t k = next_capture++;
      std::optional<Capture> slot;
      const Capture& c = capture_at(k, slot);
      // The first replay's resident-set growth is the memory metric: free
      // heap is handed back first, so the growth is memory the analyzer
      // path touched, not pages the allocator happened to keep.
      if (k == 0) malloc_trim(0);
      RunResult r = replay(c);
      if (k == 0) rss_growth = r.rss_growth_mb;
      account(c, r);
      if (args.trace == 1) trace_composed(c, r);
      block.push_back({k, digest(*env, r.diagnoses),
                       std::move(r.latencies_ms), r.seconds, r.records});
      if (args.trace == 1 && w->streaming && k == 0)
        first_stream = std::move(r);
    } while (seconds_between(b0, now_ns()) < kBlockSeconds);

    for (const auto& first : block) {
      std::optional<Capture> slot;
      const Capture& c = capture_at(first.index, slot);
      const RunResult again = replay(c);
      gate.check(digest(*env, again.diagnoses) == first.digest &&
                     again.latencies_ms.size() == first.latencies_ms.size(),
                 "the same capture replayed to a different diagnosis digest");
      const std::size_t n =
          std::min(first.latencies_ms.size(), again.latencies_ms.size());
      for (std::size_t i = 0; i < n; ++i)
        latencies.push_back(
            std::min(first.latencies_ms[i], again.latencies_ms[i]));
      replay_rps.push_back(static_cast<double>(first.records) /
                           std::min(first.seconds, again.seconds));
    }
  }

  auto sorted_latencies = latencies;
  const auto summary = perfbench::summarize_latency(sorted_latencies);
  gate.check(summary.p95_supported,
             "too few latency samples for p95 (" +
                 std::to_string(summary.samples) + ")");
  gate.check(attempted > 0, "the run injected zero faults");
  gate.check(reports > 0, "the run produced zero diagnoses");
  std::printf("replays=%zu captures=%zu records=%" PRIu64 " reports=%" PRIu64
              " latency_samples=%zu faults=%" PRIu64 " detected=%" PRIu64
              " identified=%" PRIu64 " localized_reports=%" PRIu64 "\n",
              replays, next_capture, replay_records, reports, summary.samples,
              attempted, detected, identified, localized);

  auto sorted_rps = replay_rps;
  std::sort(sorted_rps.begin(), sorted_rps.end());
  std::printf("replay throughput (1/s): p10=%.0f p50=%.0f p90=%.0f\n",
              perfbench::nearest_rank(sorted_rps, 0.10),
              perfbench::nearest_rank(sorted_rps, 0.50),
              perfbench::nearest_rank(sorted_rps, 0.90));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"throughput_rps", perfbench::median(replay_rps), "1/s"},
        {"report_latency_p50_ms", summary.p50, "ms"},
        {"report_latency_p95_ms", summary.p95, "ms"},
        {"detected_fraction", ratio(detected, attempted), "fraction"},
        {"identified_fraction", ratio(identified, attempted), "fraction"},
        {"allocs_per_record", ratio(replay_allocs, replay_records), "count"},
        {"rss_growth_mb", rss_growth, "MB"},
    };
  } else {
    // Stream, monitor and persist layers: one traced, durable session of
    // capture 0 (on the batch workloads: that capture offered through the
    // streaming front end), with checkpoints forced at fixed positions.
    const Capture& c0 = capture0;
    Tracer stream_tracer;
    stream_tracer.spans =
        SpanTracer(2 * c0.records.size() + c0.metrics.size() + 4096);
    std::vector<CheckpointSample> checkpoints;
    const RunResult traced_stream =
        run_stream(*env, c0, persist_dir, &stream_tracer, &checkpoints);
    fs::remove_all(persist_dir);
    LayerStats stream_layers;
    stream_layers.add(stream_tracer.spans);
    if (first_stream) {
      gate.check(digest(*env, traced_stream.diagnoses) ==
                     digest(*env, first_stream->diagnoses),
                 "the traced stream session's digest differs from the "
                 "untraced one's");
    }

    // Journal appends replayed on the session's own diagnosis payloads.
    std::vector<double> append_us;
    {
      fs::remove_all(journal_dir);
      auto journal = persist::ReportJournal::open(journal_dir, 4096, nullptr);
      gate.check(journal.has_value(), "cannot open the scratch journal");
      for (std::size_t i = 0; journal && i < traced_stream.diagnoses.size();
           ++i) {
        const auto payload = core::to_json(traced_stream.diagnoses[i],
                                           env->catalog.apis(),
                                           env->training.db);
        const auto t = now_ns();
        journal->append(i, util::SimTime::epoch(), 0.0, payload);
        append_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
      }
    }
    fs::remove_all(journal_dir);

    batch_layers.print("batch composition (net.*, gretel.*)");
    stream_layers.print("stream session (stream.*, monitor.*, persist.*)");
    double ckp_ms = 0.0;
    std::uintmax_t ckp_bytes = 0;
    std::size_t forced = 0;
    for (const auto& k : checkpoints) {
      std::printf("checkpoint at %3.0f%% of the stream: %.3f ms, %ju bytes\n",
                  k.at_fraction * 100.0, k.ms, k.bytes);
      if (k.ms > 0.0) {
        ckp_ms += k.ms;
        ++forced;
      }
      ckp_bytes = std::max(ckp_bytes, k.bytes);
    }

    const double ingest_ns = batch_layers.ns_per_call(kIngest);
    std::vector<double> match_us;
    double match_total_ns = 0.0;
    for (const auto& [ns, n] : batch_layers.fired) {
      const double net = static_cast<double>(ns) - ingest_ns;
      match_total_ns += net;
      match_us.push_back(net * 1e-3 / std::max(1, n));
    }
    const auto match_sum = perfbench::summarize_latency(match_us);
    const auto rca_sum = perfbench::summarize_latency(batch_layers.rca_us);
    const auto tick_sum = perfbench::summarize_latency(stream_layers.tick_us);
    const auto append_sum = perfbench::summarize_latency(append_us);
    const double stream_total_ns = static_cast<double>(
        stream_layers.total_ns() - stream_layers.self_ns[kCheckpoint]);
    const double stream_remainder_ns =
        static_cast<double>(stream_layers.total_ns() -
                            stream_layers.self_ns[kOnMetric] -
                            stream_layers.self_ns[kSink]) -
        static_cast<double>(composed0_layers_ns);
    const double unattributed =
        w->streaming ? ratio(stream_layers.self_ns[kRoot],
                             stream_layers.total_ns())
                     : ratio(batch_layers.self_ns[kRoot],
                             batch_layers.total_ns());
    const double overhead =
        w->streaming && first_stream
            ? ratio(stream_total_ns * 1e-9, first_stream->seconds) - 1.0
            : ratio(composed_s, facade_s) - 1.0;
    const double tr = static_cast<double>(traced_reports);
    metrics = {
        {"net.decode_ns_per_record", batch_layers.ns_per_call(kDecode), "ns"},
        {"net.allocs_per_record", batch_layers.allocs_per_call(kDecode),
         "count"},
        {"net.quarantined", static_cast<double>(quarantined), "count"},
        {"gretel.ingest_ns_per_event", ingest_ns, "ns"},
        {"gretel.ingest_allocs_per_event",
         batch_layers.allocs_per_call(kIngest), "count"},
        {"gretel.snapshot_match_us_per_report", match_total_ns * 1e-3 / tr,
         "us"},
        {"gretel.snapshot_match_p95_us", match_sum.p95, "us"},
        {"gretel.candidates_per_report", ratio(candidates, tr), "count"},
        {"gretel.matched_per_report", ratio(matched, tr), "count"},
        {"gretel.match_yield", ratio(matched, candidates), "fraction"},
        {"gretel.beta_final_mean", ratio(beta_sum, tr), "count"},
        {"gretel.suppressed_trigger_ratio",
         ratio(suppressed, suppressed + traced_reports), "fraction"},
        {"gretel.rca_us_per_report", batch_layers.ns_per_call(kRca) * 1e-3,
         "us"},
        {"gretel.rca_p95_us", rca_sum.p95, "us"},
        {"gretel.rca_expanded_fraction", ratio(expanded, tr), "fraction"},
        {"gretel.rca_localized_fraction", ratio(localized, reports),
         "fraction"},
        {"monitor.metric_ns_per_sample", stream_layers.ns_per_call(kOnMetric),
         "ns"},
        {"monitor.metric_points",
         static_cast<double>(traced_stream.metric_points), "count"},
        {"stream.offer_ns_per_record", stream_layers.ns_per_call(kOffer),
         "ns"},
        {"stream.tick_us_p50", tick_sum.p50, "us"},
        {"stream.tick_us_p95", tick_sum.p95, "us"},
        {"stream.ticks", static_cast<double>(traced_stream.counters.ticks),
         "count"},
        {"stream.remainder_ns_per_record",
         ratio(stream_remainder_ns, traced_stream.records), "ns"},
        {"stream.peak_state_bytes",
         static_cast<double>(traced_stream.peak_state_bytes), "bytes"},
        {"persist.journal_append_us", append_sum.p50, "us"},
        {"persist.checkpoint_ms", ratio(ckp_ms, forced), "ms"},
        {"persist.checkpoint_bytes", static_cast<double>(ckp_bytes), "bytes"},
        {"trace.unattributed_fraction", unattributed, "fraction"},
        {"trace.overhead_fraction", overhead, "fraction"},
    };
    std::printf("samples: rca=%zu snapshot_match=%zu ticks=%zu "
                "journal_appends=%zu\n",
                rca_sum.samples, match_sum.samples, tick_sum.samples,
                append_sum.samples);
  }

  // Host guard: the analysis ran on one thread; refuse a process that
  // grew more threads than the host has CPUs.
  const long threads = proc_status_field("Threads");
  if (threads > static_cast<long>(host_cpus)) {
    std::fprintf(stderr, "refusing: process ran %ld threads on %u CPUs\n",
                 threads, host_cpus);
    return 3;
  }

  const bool correct = gate.failures.empty();
  for (const auto& f : gate.failures)
    std::printf("GATE FAILED: %s\n", f.c_str());
  print_result(correct, attempted, attempted - detected, metrics);
  fs::remove_all(persist_dir);
  fs::remove_all(journal_dir);
  return correct ? 0 : 1;
}
