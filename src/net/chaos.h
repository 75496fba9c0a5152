// Wire-level chaos injection: a deterministic fault model for the telemetry
// substrate itself.
//
// GRETEL localizes faults from non-intrusive wire observation, which means
// the capture tap is exposed to exactly the infrastructure stress it is
// meant to diagnose: mirror ports drop frames under load, taps stall and
// flush, NICs truncate, clocks skew between nodes.  stack/faults.h injects
// faults into the *workload*; ChaosTap injects them into the *wire* between
// the simulated fabric and the analyzer, so the degraded-telemetry behavior
// of the whole capture→decode→detect path can be tested and measured
// (cf. the fault-injection validation methodology of arXiv:2010.00331).
//
// Determinism contract:
//  * With every rate at 0 (and clock skew off), ChaosTap is a byte-identical
//    pass-through that never touches its RNG.
//  * For a fixed seed, each frame's fate is decided by uniform draws made in
//    a fixed per-frame order, so runs are exactly reproducible — and the set
//    of frames dropped at rate r is a *subset* of the frames dropped at any
//    r' > r.  Loss sweeps are therefore monotone by construction, which is
//    what lets tests assert that detection quality degrades monotonically.
//  * Every injection is appended to an audit log, so tests can assert the
//    pipeline's quarantine/drop counters against exactly what was injected.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/capture.h"
#include "util/capped_log.h"
#include "util/rng.h"

namespace gretel::net {

enum class ChaosAction : std::uint8_t {
  Drop,        // uniform frame loss
  BurstDrop,   // frame lost inside a drop burst
  Truncate,    // frame cut mid-header / mid-body (detail = bytes kept)
  Corrupt,     // one byte flipped (detail = offset)
  Duplicate,   // frame delivered twice
  Reorder,     // frame delayed past later frames (detail = distance)
  ClockSkew,   // per-node capture clock offset (detail = skew in nanos;
               // one entry per node, on first frame from that node)
  Stall,       // tap stall onset (detail = frames stalled)
  StallDrop,   // frame lost to the stalled tap's bounded buffer
};

const char* to_string(ChaosAction action);

// One injected degradation, in arrival order.  `input_index` is the 0-based
// position of the affected frame in the input stream.
struct ChaosInjection {
  std::uint64_t input_index = 0;
  ChaosAction action = ChaosAction::Drop;
  std::int64_t detail = 0;
};

struct ChaosStats {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;  // frames actually delivered to the sink
  std::uint64_t dropped_uniform = 0;
  std::uint64_t dropped_burst = 0;
  std::uint64_t dropped_stall = 0;
  std::uint64_t truncated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t skewed = 0;  // frames whose timestamp was shifted
  std::uint64_t stalls = 0;

  std::uint64_t total_dropped() const {
    return dropped_uniform + dropped_burst + dropped_stall;
  }
};

struct ChaosConfig {
  std::uint64_t seed = 1;

  // Frame loss.  `drop_rate` is i.i.d. per frame; `burst_rate` is the
  // per-frame probability that a burst of `burst_length` consecutive losses
  // begins (mirror-port overflow behaves this way, not i.i.d.).
  double drop_rate = 0.0;
  double burst_rate = 0.0;
  std::size_t burst_length = 8;

  // Frame damage.  Truncation keeps a uniform [1, len-1] prefix, landing
  // mid-header or mid-body; corruption flips one byte at a uniform offset.
  double truncate_rate = 0.0;
  double corrupt_rate = 0.0;

  // Delivery faults.  Duplication re-delivers the frame back-to-back;
  // reordering delays a frame past up to `reorder_max_distance` later
  // frames (bounded, as TCP-based taps bound their resequencing window).
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  std::size_t reorder_max_distance = 4;

  // Per-node capture clock skew: each source node gets a fixed offset drawn
  // uniformly from [-clock_skew_max_ms, +clock_skew_max_ms], applied to
  // every frame it emits.  Produces non-monotonic interleavings and
  // negative request→response gaps downstream.
  double clock_skew_max_ms = 0.0;

  // Tap stall/resume: with probability `stall_rate` the tap stalls for the
  // next `stall_length` frames.  While stalled, frames are held in a buffer
  // of `stall_buffer` frames (oldest spills are lost — StallDrop); on
  // resume the surviving frames flush in order.
  double stall_rate = 0.0;
  std::size_t stall_length = 32;
  std::size_t stall_buffer = 16;

  // Audit-log retention: the newest `audit_limit` injections are kept for
  // reconciliation (0 = unbounded).  Aggregate stats() stay exact past the
  // cap; only the retained entry list is bounded, so thousand-scenario
  // campaigns cannot grow memory without bound.  audit().dropped() counts
  // the shed entries.
  std::size_t audit_limit = 65536;

  bool enabled() const {
    return drop_rate > 0 || burst_rate > 0 || truncate_rate > 0 ||
           corrupt_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           clock_skew_max_ms > 0 || stall_rate > 0;
  }
};

// Streaming wrapper: feed frames in arrival order, receive the degraded
// stream through the sink.  finish() flushes frames still held by the
// reorder and stall machinery (a real tap flushes on shutdown too).
class ChaosTap {
 public:
  using Sink = std::function<void(const WireRecord&)>;

  ChaosTap(ChaosConfig config, Sink sink);

  void on_record(const WireRecord& record);
  void finish();

  const ChaosStats& stats() const { return stats_; }
  // Newest config.audit_limit injections in arrival order; dropped() on the
  // log counts entries shed past the cap (aggregate stats() stay exact).
  const util::CappedLog<ChaosInjection>& audit() const { return audit_; }

  // One-shot convenience: runs a whole capture through a fresh tap and
  // returns the degraded capture (what a lossy mirror port would have
  // recorded).  `stats` / `audit` receive the injection record if non-null.
  static std::vector<WireRecord> apply(const ChaosConfig& config,
                                       std::span<const WireRecord> records,
                                       ChaosStats* stats = nullptr,
                                       std::vector<ChaosInjection>* audit =
                                           nullptr);

 private:
  struct Held {
    WireRecord record;
    std::size_t remaining;  // deliveries left before release
    std::uint64_t input_index;
  };

  std::int64_t skew_for(wire::NodeId node, std::uint64_t input_index);
  // Final delivery stage: routes through the stall buffer when stalled.
  void deliver(WireRecord record, std::uint64_t input_index);
  void emit(const WireRecord& record);
  void flush_stall();
  void release_held();

  ChaosConfig config_;
  Sink sink_;
  util::Rng rng_;
  ChaosStats stats_;
  util::CappedLog<ChaosInjection> audit_;
  std::unordered_map<std::uint8_t, std::int64_t> node_skew_ns_;
  std::vector<Held> held_;  // reorder holding pen (tiny, bounded)
  std::deque<std::pair<WireRecord, std::uint64_t>> stall_buffer_;
  std::size_t burst_remaining_ = 0;
  std::size_t stall_remaining_ = 0;
  std::uint64_t index_ = 0;
};

}  // namespace gretel::net
