#include "detect/latency_tracker.h"

#include <algorithm>
#include <cmath>

#include "util/binio.h"

namespace gretel::detect {

namespace {
// Pending-map sweep cadence, in observe() calls.  The sweep only reclaims
// memory (admission is decided at pairing time), so the cadence affects
// footprint, never output.
constexpr std::uint32_t kSweepStride = 64;
}  // namespace

void LatencyTracker::sweep_now(util::SimTime now) {
  if (orphan_timeout_seconds_ <= 0.0) return;
  observes_since_sweep_ = 0;
  sweep_orphans(now);
}

bool LatencyTracker::stale(const InflightEntry& e) const {
  if (e.rpc) {
    const auto it = pending_rpc_.find(e.key);
    return it == pending_rpc_.end() || it->second != e.ts;
  }
  const auto it = pending_rest_.find(static_cast<std::uint32_t>(e.key));
  return it == pending_rest_.end() || it->second != e.ts;
}

void LatencyTracker::note_inflight(std::uint64_t key, util::SimTime ts,
                                   bool rpc) {
  inflight_fifo_.push_back({key, ts, rpc});

  // Pairing and the orphan sweep erase map entries but leave their FIFO
  // records behind (no per-map back-index), and pops only advance the head
  // index.  When dead entries dominate, one pass reclaims them — amortized
  // O(1) per insert, and the queue stays O(pending + cap).
  const std::size_t slack = inflight_cap_ + 64;
  if (inflight_fifo_.size() > 2 * (pending() + slack)) {
    std::size_t w = 0;
    for (std::size_t r = inflight_head_; r < inflight_fifo_.size(); ++r) {
      if (!stale(inflight_fifo_[r])) inflight_fifo_[w++] = inflight_fifo_[r];
    }
    inflight_fifo_.resize(w);
    inflight_head_ = 0;
  }

  // Enforce the cap: evict the oldest still-pending request, exactly
  // accounted.  A request evicted here is one the stream lost the response
  // to (or will look like it did) — the same degradation the orphan reaper
  // accounts, but forced early by memory pressure.
  while (pending() > inflight_cap_ &&
         inflight_head_ < inflight_fifo_.size()) {
    const InflightEntry entry = inflight_fifo_[inflight_head_++];
    if (stale(entry)) continue;
    if (entry.rpc) {
      pending_rpc_.erase(entry.key);
    } else {
      pending_rest_.erase(static_cast<std::uint32_t>(entry.key));
    }
    ++guards_.inflight_evicted;
  }
}

void LatencyTracker::sweep_orphans(util::SimTime now) {
  const auto expired = [&](util::SimTime req_ts) {
    return (now - req_ts).to_seconds() > orphan_timeout_seconds_;
  };
  for (auto it = pending_rest_.begin(); it != pending_rest_.end();) {
    if (expired(it->second)) {
      it = pending_rest_.erase(it);
      ++guards_.orphans_reaped;
    } else {
      ++it;
    }
  }
  for (auto it = pending_rpc_.begin(); it != pending_rpc_.end();) {
    if (expired(it->second)) {
      it = pending_rpc_.erase(it);
      ++guards_.orphans_reaped;
    } else {
      ++it;
    }
  }
}

std::optional<LatencySample> LatencyTracker::observe(
    const wire::EventHeader& event) {
  if (orphan_timeout_seconds_ > 0.0 &&
      ++observes_since_sweep_ >= kSweepStride) {
    observes_since_sweep_ = 0;
    sweep_orphans(event.ts);
  }

  if (event.is_request()) {
    if (event.kind == wire::ApiKind::Rest) {
      pending_rest_[event.conn_id] = event.ts;
      if (inflight_cap_ > 0) note_inflight(event.conn_id, event.ts, false);
    } else {
      pending_rpc_[event.msg_id] = event.ts;
      if (inflight_cap_ > 0) note_inflight(event.msg_id, event.ts, true);
    }
    return std::nullopt;
  }

  // Response: close out the pending request, if any.
  util::SimTime req_ts;
  if (event.kind == wire::ApiKind::Rest) {
    const auto it = pending_rest_.find(event.conn_id);
    if (it == pending_rest_.end()) return std::nullopt;
    req_ts = it->second;
    pending_rest_.erase(it);
  } else {
    const auto it = pending_rpc_.find(event.msg_id);
    if (it == pending_rpc_.end()) return std::nullopt;
    req_ts = it->second;
    pending_rpc_.erase(it);
  }

  // Pairing-time admission: a response past the orphan timeout is the tail
  // of an exchange the tap effectively lost — its latency reflects the
  // degradation, not the service.  Decided here (never in the sweep) so
  // output is independent of sweep cadence.
  if (orphan_timeout_seconds_ > 0.0 &&
      (event.ts - req_ts).to_seconds() > orphan_timeout_seconds_) {
    ++guards_.orphans_reaped;
    return std::nullopt;
  }

  double latency_ms = (event.ts - req_ts).to_millis();
  if (!std::isfinite(latency_ms)) {
    ++guards_.rejected_nonfinite;
    return std::nullopt;
  }
  if (latency_ms < 0.0) {
    // Capture clock skew between the tapped nodes.  The exchange is real, so
    // keep the sample, but clamp the impossible gap rather than feeding a
    // negative level into the baseline.
    latency_ms = 0.0;
    ++guards_.clamped_negative;
  }
  ++samples_;
  auto& detector = detectors_.try_emplace(event.api, params_).first->second;
  return LatencySample{event.api, event.ts, latency_ms,
                       detector.observe(event.ts.to_seconds(), latency_ms)};
}

void LatencyTracker::save_state(std::string& out) const {
  // Unordered maps are walked in sorted-key order so the same tracker state
  // always produces the same bytes (checkpoint files diff cleanly and the
  // recovery tests can compare blobs directly).
  {
    std::vector<std::uint32_t> keys;
    keys.reserve(pending_rest_.size());
    for (const auto& [k, ts] : pending_rest_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    util::put_u32(out, static_cast<std::uint32_t>(keys.size()));
    for (std::uint32_t k : keys) {
      util::put_u32(out, k);
      util::put_i64(out, pending_rest_.at(k).nanos());
    }
  }
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(pending_rpc_.size());
    for (const auto& [k, ts] : pending_rpc_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    util::put_u32(out, static_cast<std::uint32_t>(keys.size()));
    for (std::uint64_t k : keys) {
      util::put_u64(out, k);
      util::put_i64(out, pending_rpc_.at(k).nanos());
    }
  }
  {
    std::vector<wire::ApiId> apis;
    apis.reserve(detectors_.size());
    for (const auto& [api, detector] : detectors_) apis.push_back(api);
    std::sort(apis.begin(), apis.end());
    util::put_u32(out, static_cast<std::uint32_t>(apis.size()));
    for (wire::ApiId api : apis) {
      util::put_u16(out, api.value());
      detectors_.at(api).save_state(out);
    }
  }
  // The live slice of the in-flight FIFO, verbatim: eviction order after a
  // restore is exactly what it would have been without the crash.  Stale
  // (already-paired / already-swept) entries only exist to be skipped, so
  // they are not worth the bytes.
  {
    std::uint32_t live = 0;
    for (std::size_t i = inflight_head_; i < inflight_fifo_.size(); ++i) {
      if (!stale(inflight_fifo_[i])) ++live;
    }
    util::put_u32(out, live);
    for (std::size_t i = inflight_head_; i < inflight_fifo_.size(); ++i) {
      const InflightEntry& e = inflight_fifo_[i];
      if (stale(e)) continue;
      util::put_u64(out, e.key);
      util::put_i64(out, e.ts.nanos());
      util::put_u8(out, e.rpc ? 1 : 0);
    }
  }
  util::put_u64(out, samples_);
  util::put_u32(out, observes_since_sweep_);
  util::put_u64(out, guards_.clamped_negative);
  util::put_u64(out, guards_.rejected_nonfinite);
  util::put_u64(out, guards_.orphans_reaped);
  util::put_u64(out, guards_.inflight_evicted);
}

void LatencyTracker::reset() {
  pending_rest_.clear();
  pending_rpc_.clear();
  detectors_.clear();
  inflight_fifo_.clear();
  inflight_head_ = 0;
  samples_ = 0;
  observes_since_sweep_ = 0;
  guards_ = LatencyGuardStats{};
}

bool LatencyTracker::load_state(std::string_view& in) {
  reset();
  constexpr std::uint32_t kMaxElems = 1u << 24;

  std::uint32_t n_rest = 0;
  if (!util::get_u32(in, n_rest) || n_rest > kMaxElems) return false;
  for (std::uint32_t i = 0; i < n_rest; ++i) {
    std::uint32_t k = 0;
    std::int64_t ts = 0;
    if (!util::get_u32(in, k) || !util::get_i64(in, ts)) {
      reset();
      return false;
    }
    pending_rest_.emplace(k, util::SimTime(ts));
  }
  std::uint32_t n_rpc = 0;
  if (!util::get_u32(in, n_rpc) || n_rpc > kMaxElems) {
    reset();
    return false;
  }
  for (std::uint32_t i = 0; i < n_rpc; ++i) {
    std::uint64_t k = 0;
    std::int64_t ts = 0;
    if (!util::get_u64(in, k) || !util::get_i64(in, ts)) {
      reset();
      return false;
    }
    pending_rpc_.emplace(k, util::SimTime(ts));
  }

  std::uint32_t n_apis = 0;
  if (!util::get_u32(in, n_apis) || n_apis > kMaxElems) {
    reset();
    return false;
  }
  for (std::uint32_t i = 0; i < n_apis; ++i) {
    std::uint16_t api_raw = 0;
    LevelShiftDetector detector(params_);
    if (!util::get_u16(in, api_raw) || !detector.load_state(in)) {
      reset();
      return false;
    }
    detectors_.emplace(wire::ApiId(api_raw), std::move(detector));
  }

  std::uint32_t n_fifo = 0;
  if (!util::get_u32(in, n_fifo) || n_fifo > kMaxElems) {
    reset();
    return false;
  }
  for (std::uint32_t i = 0; i < n_fifo; ++i) {
    std::uint64_t key = 0;
    std::int64_t ts = 0;
    std::uint8_t rpc = 0;
    if (!util::get_u64(in, key) || !util::get_i64(in, ts) ||
        !util::get_u8(in, rpc)) {
      reset();
      return false;
    }
    inflight_fifo_.push_back({key, util::SimTime(ts), rpc != 0});
  }

  if (!util::get_u64(in, samples_) ||
      !util::get_u32(in, observes_since_sweep_) ||
      !util::get_u64(in, guards_.clamped_negative) ||
      !util::get_u64(in, guards_.rejected_nonfinite) ||
      !util::get_u64(in, guards_.orphans_reaped) ||
      !util::get_u64(in, guards_.inflight_evicted)) {
    reset();
    return false;
  }
  return true;
}

}  // namespace gretel::detect
