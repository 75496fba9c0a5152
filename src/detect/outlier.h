// Online outlier detection (§6: "outlier detection in GRETEL is pluggable
// and administrators can leverage any sophisticated detection mechanism").
//
// Detectors consume one (timestamp, value) sample at a time and optionally
// emit an Alarm.  Production runs the level-shift detector (the R
// tsoutliers "LS" analog the paper uses) as a concrete type, held by value
// per API latency stream; it alone is checkpointed, through its own
// save_state/load_state.  This interface exists for
// bench_ablation_detectors, which swaps in the windowed z-score and EWMA
// detectors against it and never checkpoints them.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

namespace gretel::detect {

enum class ShiftDirection { Up, Down };

struct Alarm {
  double t_seconds = 0.0;   // time of the confirming sample
  double value = 0.0;       // the confirming sample
  double baseline = 0.0;    // level before the shift
  double magnitude = 0.0;   // |new level - old level| estimate
  ShiftDirection direction = ShiftDirection::Up;
};

class OutlierDetector {
 public:
  virtual ~OutlierDetector() = default;

  // Feeds one sample; returns an alarm when an anomaly is confirmed.
  virtual std::optional<Alarm> observe(double t_seconds, double value) = 0;

  virtual std::string_view name() const = 0;

  // Forgets all state (fresh series).
  virtual void reset() = 0;
};

}  // namespace gretel::detect
