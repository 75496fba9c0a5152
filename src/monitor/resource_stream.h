// Online anomaly detection over resource-utilization streams (§6: GRETEL
// "uses the LS mode in the tsoutliers to detect the outliers in the
// continuous stream of API latencies and resource utilization received at
// the analyzer").
//
// Each (node, resource) pair gets its own level-shift detector, held by
// value; confirmed shifts are retained as ResourceAlarms (the red
// level-shift marks on the CPU pane of the paper's case studies) and
// checkpointed.  Nothing downstream reads them yet: root-cause analysis
// judges resources from the metrics store's windows, not from these alarms.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/level_shift.h"
#include "net/node.h"
#include "wire/endpoint.h"

namespace gretel::monitor {

struct ResourceAlarm {
  wire::NodeId node;
  net::ResourceKind kind = net::ResourceKind::CpuPct;
  detect::Alarm alarm;
};

class ResourceAnomalyStream {
 public:
  // Every stream's detector is built from `params` (production uses the
  // defaults).
  explicit ResourceAnomalyStream(detect::LevelShiftParams params = {})
      : params_(params) {}

  // Feeds one sample; a confirmed shift returns an alarm (also retained in
  // alarms()).
  std::optional<ResourceAlarm> observe(wire::NodeId node,
                                       net::ResourceKind kind,
                                       double t_seconds, double value);

  const std::vector<ResourceAlarm>& alarms() const { return alarms_; }

  // Alarms for one node inside [from_s, to_s).
  std::vector<ResourceAlarm> alarms_for(wire::NodeId node, double from_s,
                                        double to_s) const;

  std::size_t samples() const { return samples_; }

  // Checkpoint support (src/persist/): serializes every (node, resource)
  // detector's learned state plus the retained alarm list and sample count,
  // keys sorted for deterministic bytes.  load_state rebuilds detectors
  // from this stream's params; torn input or a detector name other than
  // "level-shift" resets the stream and returns false.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

 private:
  static std::uint32_t key(wire::NodeId node, net::ResourceKind kind) {
    return (std::uint32_t{node.value()} << 8) |
           static_cast<std::uint32_t>(kind);
  }

  detect::LevelShiftParams params_;
  std::unordered_map<std::uint32_t, detect::LevelShiftDetector> detectors_;
  std::vector<ResourceAlarm> alarms_;
  std::size_t samples_ = 0;
};

}  // namespace gretel::monitor
