// Helpers of the end-to-end benchmark that carry its measurement rules:
// which latency percentile a sample set may report, how a span's self time
// is derived from its children, and how diagnoses are scored against the
// ground truth of the injected faults.  Everything here is pure and is
// covered by tests/bench_util_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gretel/report.h"
#include "wire/endpoint.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// A percentile is only reported when at least this many samples lie above
// it; below that, one outlier more or less moves the reported value.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

// Smallest sample count whose p-th percentile has kMinSamplesBeyond
// samples beyond it (200 for p = 0.95).
std::size_t min_samples_for(double p);

// Nearest-rank percentile of an ascending sample vector (0 when empty).
double nearest_rank(const std::vector<double>& sorted, double p);

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  bool p95_supported = false;  // samples_beyond(samples, 0.95) >= 10
};

// Sorts `samples` in place and summarizes them.
LatencySummary summarize_latency(std::vector<double>& samples);

// Median of a copy of `values` (mean of the middle pair when even).
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// In-memory span recorder for one thread.  A span is opened and closed
// around a call into one layer; spans opened while another is open are its
// children.  Self time is the span's duration minus the time its direct
// children cover, and self allocations likewise, so the self times of all
// spans add up to the time covered by the root spans.  Timestamps and
// allocation counts are passed in, which keeps the arithmetic testable.
class SpanTracer {
 public:
  struct Span {
    std::uint16_t layer = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t start_allocs = 0;
    std::uint64_t end_allocs = 0;
    std::uint64_t child_allocs = 0;

    std::int64_t duration_ns() const { return end_ns - start_ns; }
    std::int64_t self_ns() const { return duration_ns() - child_ns; }
    std::uint64_t self_allocs() const {
      return end_allocs - start_allocs - child_allocs;
    }
  };

  explicit SpanTracer(std::size_t reserve = 0) { spans_.reserve(reserve); }

  // Opens a span and returns its index.
  std::size_t begin(std::uint16_t layer, std::int64_t now_ns,
                    std::uint64_t allocs);
  // Closes the innermost open span.
  void end(std::int64_t now_ns, std::uint64_t allocs);
  // Reassigns a span's layer once the call has shown which work it did.
  void set_layer(std::size_t index, std::uint16_t layer) {
    spans_[index].layer = layer;
  }

  std::size_t open_depth() const { return stack_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// Fault scoring
// ---------------------------------------------------------------------------

// One injected fault: the operation instance it failed (a fresh
// WorkflowExecutor numbers launches[i] as instance i + 1) and its template.
struct InjectedFault {
  std::uint32_t instance = 0;
  gretel::wire::OpTemplateId op;
};

struct FaultScore {
  std::size_t injected = 0;
  std::size_t detected = 0;    // named by at least one diagnosis
  std::size_t identified = 0;  // true operation among the matched ones
};

// Attributes each injected fault to the diagnosis whose error events carry
// its instance label — anchored on the offending API first, then by plain
// containment, so overlapping windows cannot steal each other's faults —
// and checks whether the fault's true operation is among that diagnosis's
// matched fingerprints.  `op_of_fingerprint[i]` is the operation template
// of fingerprint i.
FaultScore score_faults(std::span<const gretel::core::Diagnosis> diagnoses,
                        std::span<const InjectedFault> faults,
                        std::span<const gretel::wire::OpTemplateId>
                            op_of_fingerprint);

// Diagnoses that name a resource anomaly whose detail mentions `resource`
// (e.g. "cpu") on one of `nodes` — the campaign engine's localization rule.
std::size_t diagnoses_localized(
    std::span<const gretel::core::Diagnosis> diagnoses,
    std::span<const gretel::wire::NodeId> nodes, const std::string& resource);

}  // namespace perfbench
