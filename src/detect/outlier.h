// Online outlier detection (§6: "outlier detection in GRETEL is pluggable
// and administrators can leverage any sophisticated detection mechanism").
//
// Detectors consume one (timestamp, value) sample at a time and optionally
// emit an Alarm.  Production runs the level-shift detector (the R
// tsoutliers "LS" analog the paper uses) as a concrete type, held by value
// per API latency stream and per resource stream.  This interface exists
// for bench_ablation_detectors, which swaps in the windowed z-score and
// EWMA detectors against it.
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

  // Checkpoint support (src/persist/): appends the detector's *dynamic*
  // state — learned baselines, pending runs, cooldown clocks — to `out` in
  // the util/binio.h big-endian vocabulary.  Parameters are NOT serialized:
  // restore constructs the detector from config the same way the original
  // was, then load_state() rehydrates what it learned.
  //
  // Contract: save_state is strictly non-mutating (a save mid-stream must
  // not perturb subsequent alarms — the crash-free byte-identity guarantee
  // depends on it), and load_state(save_state(d)) reproduces d's observable
  // behavior bit-for-bit.  load_state consumes its bytes from the front of
  // `in` and returns false (leaving the detector reset) on torn or
  // malformed input.
  virtual void save_state(std::string& out) const = 0;
  virtual bool load_state(std::string_view& in) = 0;
};

}  // namespace gretel::detect
