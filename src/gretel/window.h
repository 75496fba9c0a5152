// The dual-buffer event receiver (§5.2, §6 "Optimizations").
//
// "GRETEL leverages a dual buffer to receive and process the incoming REST
// and RPC messages.  It speeds up the snapshotting process using a
// combination of two pointers in the dual buffer separated by α messages ...
// Whenever an error is encountered in the message stream, GRETEL freezes
// the messages between these two pointers to create a snapshot."
//
// DualBuffer keeps the most recent 2α events so that, after sliding the
// window ahead by α/2 on a fault (§5.3.1), both the past α/2 and the future
// α/2 of the faulty message are available when the snapshot freezes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/ring_buffer.h"
#include "wire/message.h"

namespace gretel::core {

// Struct-of-arrays view of a frozen snapshot: the per-event fields the
// analysis loops actually scan, laid out as contiguous columns so the error
// scan, the request filter and the Alg. 2 symbol walks read dense uint16 /
// uint8 / double arrays instead of striding through whole wire::Event rows
// (most of whose fields the scans never touch).  The columns are the
// natural operands of the util/simd.h kernels.
//
// DualBuffer::freeze fills them straight from the ring; row i describes the
// event with sequence number FreezeInfo::first_seq + i.
struct WindowColumns {
  std::vector<std::uint16_t> api;   // ApiId raw symbol values
  std::vector<std::uint8_t> err;    // 1 = error response
  std::vector<std::uint8_t> req;    // 1 = request
  std::vector<std::uint32_t> corr;  // correlation ids (0 = absent)
  std::vector<double> ts_s;         // timestamps in seconds

  // Sizes every column to `n` rows (capacity is retained across freezes).
  void resize(std::size_t n) {
    api.resize(n);
    err.resize(n);
    req.resize(n);
    corr.resize(n);
    ts_s.resize(n);
  }

  void set(std::size_t i, const wire::Event& e) {
    api[i] = e.api.value();
    err[i] = e.is_error() ? 1 : 0;
    req[i] = e.is_request() ? 1 : 0;
    corr[i] = e.correlation_id;
    ts_s[i] = e.ts.to_seconds();
  }

  // Columns of an event sequence held outside a DualBuffer (tests and
  // one-shot callers).
  void build(std::span<const wire::Event> events) {
    resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) set(i, events[i]);
  }

  std::size_t size() const { return api.size(); }
};

// What a freeze saw beyond the columns themselves: which events they
// cover, where the center landed, and how degraded the telemetry under the
// window was.
struct FreezeInfo {
  // Sequence number of the window's first event (column row 0).
  std::uint64_t first_seq = 0;
  // Rows in the window (0 when the ring no longer holds the center).
  std::size_t rows = 0;
  std::size_t center_index = 0;
  // Telemetry losses (quarantined frames, overflow drops) that occurred
  // inside the snapshot's span.  Non-zero means the snapshot has gaps the
  // matcher cannot see, so downstream confidence should be degraded.
  std::uint64_t losses = 0;
  // True when ring eviction truncated the requested past half-window.
  bool clamped_front = false;
};

class DualBuffer {
 public:
  explicit DualBuffer(std::size_t alpha)
      : alpha_(alpha), ring_(2 * alpha), loss_ring_(2 * alpha) {}

  // Appends an event; returns its global sequence number.
  // `cumulative_loss` is the caller's running count of telemetry losses
  // (decode quarantines + overflow drops) observed *before* this event; it
  // rides in a parallel ring so a freeze can report how many losses fell
  // inside its window.  The overload without it reuses the last value.
  std::uint64_t push(const wire::Event& event) {
    return push(event, last_loss_);
  }
  std::uint64_t push(const wire::Event& event, std::uint64_t cumulative_loss) {
    last_loss_ = cumulative_loss;
    loss_ring_.push(cumulative_loss);
    return ring_.push(event);
  }
  // push() that also stamps the assigned sequence number onto the stored
  // row, so the caller need not copy the event just to set `seq`.
  std::uint64_t push_stamped(const wire::Event& event,
                             std::uint64_t cumulative_loss) {
    const auto seq = push(event, cumulative_loss);
    ring_.back().seq = seq;
    return seq;
  }

  std::size_t alpha() const { return alpha_; }
  std::uint64_t end_seq() const { return ring_.end_seq(); }

  // True once the future half of the window around `center` has arrived.
  bool future_ready(std::uint64_t center) const {
    return ring_.end_seq() > center + alpha_ / 2;
  }
  // True while the past half of the window is still buffered.
  bool past_available(std::uint64_t center) const {
    const auto lo = center > alpha_ / 2 ? center - alpha_ / 2 : 0;
    return ring_.first_seq() <= lo;
  }

  // Where freeze(center) places its window, without reading any event:
  // the window's first sequence number, its row count, the center's row,
  // its telemetry losses and whether eviction clamped the past half.
  //
  // If ingestion has run so far ahead that the ring already evicted
  // `center` itself, there is no meaningful window left: the window comes
  // back empty instead of letting `center - first` wrap to a huge index.
  FreezeInfo locate(std::uint64_t center) const {
    FreezeInfo info;
    // The serial detector freezes α/2 events past a center the ring holds
    // for 2α, so this only guards callers that fall further behind.
    if (ring_.first_seq() > center) return info;
    const auto lo = center > alpha_ / 2 ? center - alpha_ / 2 : 0;
    const auto hi = std::min(center + alpha_ / 2, ring_.end_seq());
    // The window may have been clamped at the front.
    const auto first = std::max(lo, ring_.first_seq());
    info.first_seq = first;
    info.center_index = static_cast<std::size_t>(center - first);
    info.clamped_front = first > lo;
    // A center not pushed yet yields an empty window, as a clamped one does.
    info.rows = hi > first ? static_cast<std::size_t>(hi - first) : 0;
    if (info.rows > 0) {
      // The loss ring is pushed in lockstep with the event ring, so the
      // same sequence numbers are resident in both.  In-window losses are
      // the cumulative count at the last event minus at the first.
      info.losses = loss_ring_.at(hi - 1) - loss_ring_.at(first);
    }
    return info;
  }

  // Freezes the α messages centred on `center`, [center-α/2, center+α/2),
  // into `cols` without copying any event: the columns are filled straight
  // from the ring, and the events themselves stay readable through at()
  // until the next push evicts them.  Returns locate(center); `cols` holds
  // its `rows` rows.
  FreezeInfo freeze(std::uint64_t center, WindowColumns& cols) const {
    const FreezeInfo info = locate(center);
    cols.resize(info.rows);
    std::size_t row = 0;
    ring_.for_each(info.first_seq, info.first_seq + info.rows,
                   [&](const wire::Event& e) { cols.set(row++, e); });
    return info;
  }

  // The last error event among the `reach` rows before a non-empty
  // window's center row (the center clamped to the last row), the window
  // clamped at its front: what a scan of the frozen error column over
  // [center − reach, center) finds, read from the ring without freezing.
  // Returns its sequence number, or nullopt when no such row is an error.
  std::optional<std::uint64_t> last_error_before(const FreezeInfo& window,
                                                 std::size_t reach) const {
    assert(window.rows > 0);
    const auto center = std::min(window.center_index, window.rows - 1);
    const auto from = window.first_seq + (center > reach ? center - reach : 0);
    for (auto seq = window.first_seq + center; seq-- > from;) {
      if (ring_.at(seq).is_error()) return seq;
    }
    return std::nullopt;
  }

  // The resident event with sequence number `seq` (e.g. a row of the last
  // freeze: FreezeInfo::first_seq + row).
  const wire::Event& at(std::uint64_t seq) const { return ring_.at(seq); }

 private:
  std::size_t alpha_;
  util::RingBuffer<wire::Event> ring_;
  // Cumulative telemetry-loss count at each event, same capacity and seq
  // numbering as ring_.
  util::RingBuffer<std::uint64_t> loss_ring_;
  std::uint64_t last_loss_ = 0;
};

}  // namespace gretel::core
