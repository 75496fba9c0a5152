// Offline window analysis used by the root-cause engine (Algorithm 3's
// Is_Anomalous): given a resource time series and the fault window supplied
// by the anomaly detector, decide whether the resource behaved anomalously
// in that window compared to its own recent past.
//
// The baseline is bounded and past-only: the points with
// t ∈ [window_start − kBaselineSeconds, window_start).  Points after the
// window, and points older than the baseline span, never enter a verdict,
// so a batch run judges a window exactly as a stream that has only seen
// the samples up to it, and the cost of a verdict does not grow with the
// length of the session.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "net/node.h"
#include "util/stats.h"

namespace gretel::detect {

// Span of the baseline before the window start, in seconds (60 samples at
// the paper's 1 s collectd period).  StreamAnalyzer derives its metric
// retention from it.
inline constexpr double kBaselineSeconds = 60.0;
// Baseline points the relative verdict needs.  Fewer give a MAD too noisy
// to judge by: at 4, the fault-free dense-ops workload starts naming
// spurious resource causes.
inline constexpr std::size_t kMinBaselinePoints = 20;

struct WindowVerdict {
  bool anomalous = false;
  std::size_t window_samples = 0;  // points inside the window
  double window_level = 0.0;    // median inside the window
  double baseline_level = 0.0;  // median of the baseline span
  double sigma = 0.0;           // robust scale of the baseline
};

// Robust comparison: the window is anomalous when its median deviates from
// the baseline median by more than k baseline MAD-sigmas (and by a minimal
// absolute amount to avoid flagging flat series).  With fewer than
// kMinBaselinePoints baseline points only the window level is reported.
//
// One linear pass partitions the window and baseline values into `scratch`
// (caller-owned, reused across calls so steady-state analysis allocates
// nothing), so the series need not be in time order.  The medians are
// selected in place (util::median_inplace / mad_sigma_inplace), which is
// bit-identical to sorting copies with util::median / util::mad_sigma.
WindowVerdict analyze_window(const util::TimeSeries& series,
                             double window_start_s, double window_end_s,
                             std::vector<double>& scratch,
                             double k_sigma = 5.0, double min_abs = 1e-9);

// Absolute resource health rules (the "domain knowledge" checks GRETEL's
// watchers apply regardless of history): e.g. free disk below floor,
// CPU pegged.  Returns a reason when the latest in-window value violates
// the rule for the given resource kind.
std::optional<const char*> absolute_rule_violation(net::ResourceKind kind,
                                                   double value);

}  // namespace gretel::detect
