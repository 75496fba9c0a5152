// Offline window analysis used by the root-cause engine (Algorithm 3's
// Is_Anomalous): given a resource time series and the fault window supplied
// by the anomaly detector, decide whether the resource behaved anomalously
// in that window compared to its own history outside it.
#pragma once

#include <optional>
#include <vector>

#include "net/node.h"
#include "util/stats.h"

namespace gretel::detect {

struct WindowVerdict {
  bool anomalous = false;
  double window_level = 0.0;    // median inside the window
  double baseline_level = 0.0;  // median outside the window
  double sigma = 0.0;           // robust scale of the baseline
};

// Robust comparison: the window is anomalous when its median deviates from
// the out-of-window median by more than k baseline MAD-sigmas (and by a
// minimal absolute amount to avoid flagging flat series).
//
// The series' values are partitioned into `scratch` (caller-owned, reused
// across calls so steady-state analysis allocates nothing) and the medians
// are selected in place (util::median_inplace / mad_sigma_inplace), which is
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
