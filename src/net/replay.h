// Replay engine: the tcpreplay analog used by the throughput experiments.
//
// §7.4.1 of the paper drives GRETEL with tcpreplay-generated event streams
// at up to 50K packets per second.  ReplayEngine feeds a recorded stream of
// WireRecords to a sink as fast as the sink can take them, measuring wall
// time, event rate and wire throughput (Mbps) — which is how Fig. 8c's
// y-axis is produced.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "net/capture.h"

namespace gretel::net {

struct ReplayReport {
  std::uint64_t records = 0;
  std::uint64_t wire_bytes = 0;
  double wall_seconds = 0.0;
  // Records whose timestamp regressed behind the running maximum.  They
  // are fed as captured; skewed tap clocks and merged multi-tap captures
  // only show up in this count.
  std::uint64_t non_monotonic = 0;

  double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(records) / wall_seconds
                            : 0.0;
  }
  double mbps() const {
    return wall_seconds > 0
               ? static_cast<double>(wire_bytes) * 8.0 / 1e6 / wall_seconds
               : 0.0;
  }
};

class ReplayEngine {
 public:
  using Sink = std::function<void(const WireRecord&)>;

  // Feeds every record to `sink` back-to-back, in capture order, and
  // reports achieved rates.
  static ReplayReport replay(std::span<const WireRecord> records,
                             const Sink& sink);
};

}  // namespace gretel::net
