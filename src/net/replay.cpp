#include "net/replay.h"

#include <chrono>

namespace gretel::net {

ReplayReport ReplayEngine::replay(std::span<const WireRecord> records,
                                  const Sink& sink) {
  ReplayReport report;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& r : records) {
    sink(r);
    ++report.records;
    report.wire_bytes += r.bytes.size();
  }
  const auto end = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(end - start).count();

  // Regressions against the running timestamp maximum — the same notion of
  // "non-monotonic" CaptureTap counts, so replay- and tap-side accounting
  // for one capture agree.  Counted outside the timed loop.
  if (!records.empty()) {
    auto last = records.front().ts;
    for (const auto& r : records.subspan(1)) {
      if (r.ts < last) {
        ++report.non_monotonic;
      } else {
        last = r.ts;
      }
    }
  }
  return report;
}

}  // namespace gretel::net
