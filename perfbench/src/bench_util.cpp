#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

// 1-based nearest rank of the p-th percentile: ceil(p * n), at least 1.
std::size_t rank_of(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), p) - 1];
}

LatencySummary summarize_latency(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.samples = samples.size();
  s.p50 = nearest_rank(samples, 0.50);
  s.p95 = nearest_rank(samples, 0.95);
  s.p95_supported = samples_beyond(samples.size(), 0.95) >= kMinSamplesBeyond;
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

std::size_t SpanTracer::begin(std::uint16_t layer, std::int64_t now_ns,
                              std::uint64_t allocs) {
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  s.start_ns = now_ns;
  s.start_allocs = allocs;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanTracer::end(std::int64_t now_ns, std::uint64_t allocs) {
  Span& s = spans_[stack_.back()];
  stack_.pop_back();
  s.end_ns = now_ns;
  s.end_allocs = allocs;
  if (s.parent >= 0) {
    Span& parent = spans_[static_cast<std::size_t>(s.parent)];
    parent.child_ns += s.duration_ns();
    parent.child_allocs += s.end_allocs - s.start_allocs;
  }
}

FaultScore score_faults(
    std::span<const gretel::core::Diagnosis> diagnoses,
    std::span<const InjectedFault> faults,
    std::span<const gretel::wire::OpTemplateId> op_of_fingerprint) {
  using gretel::core::FaultReport;
  std::unordered_map<std::uint32_t, const FaultReport*> by_instance;
  for (const bool anchored : {true, false}) {
    for (const auto& d : diagnoses) {
      for (const auto& ev : d.fault.error_events) {
        if (!ev.is_error() || !ev.truth_instance.valid()) continue;
        if (anchored && ev.api != d.fault.offending_api) continue;
        by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
      }
    }
  }

  FaultScore score;
  score.injected = faults.size();
  for (const auto& f : faults) {
    const auto it = by_instance.find(f.instance);
    if (it == by_instance.end()) continue;
    ++score.detected;
    for (auto idx : it->second->matched_fingerprints) {
      if (idx < op_of_fingerprint.size() && op_of_fingerprint[idx] == f.op) {
        ++score.identified;
        break;
      }
    }
  }
  return score;
}

std::size_t diagnoses_localized(
    std::span<const gretel::core::Diagnosis> diagnoses,
    std::span<const gretel::wire::NodeId> nodes, const std::string& resource) {
  std::size_t n = 0;
  for (const auto& d : diagnoses) {
    const bool hit = std::any_of(
        d.root_cause.causes.begin(), d.root_cause.causes.end(),
        [&](const gretel::core::Cause& c) {
          return c.kind == gretel::core::CauseKind::ResourceAnomaly &&
                 c.detail.find(resource) != std::string::npos &&
                 std::find(nodes.begin(), nodes.end(), c.node) != nodes.end();
        });
    n += hit;
  }
  return n;
}

}  // namespace perfbench
