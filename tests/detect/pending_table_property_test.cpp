// The latency tracker's flat pending table against a reference built the
// straightforward way: one std::unordered_map per exchange kind, swept and
// evicted exactly as the tracker documents.  Seeded random event streams
// (REST and RPC ids drawn from overlapping ranges, reused ids, lost
// responses, clock skew) must give the same samples, the same guard
// counts and byte-identical save_state blobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "detect/latency_tracker.h"
#include "util/binio.h"
#include "util/rng.h"

namespace gretel::detect {
namespace {

using util::SimDuration;
using util::SimTime;

class ReferenceTracker {
 public:
  ReferenceTracker(double orphan_timeout_s, std::size_t cap)
      : timeout_(orphan_timeout_s), cap_(cap) {}

  std::optional<LatencySample> observe(const wire::Event& e) {
    if (timeout_ > 0.0 && ++since_sweep_ >= 64) {
      since_sweep_ = 0;
      sweep(e.ts);
    }
    const bool rpc = e.kind == wire::ApiKind::Rpc;
    if (e.is_request()) {
      if (rpc) {
        rpc_[e.msg_id] = e.ts;
        if (cap_ > 0) note(e.msg_id, e.ts, true);
      } else {
        rest_[e.conn_id] = e.ts;
        if (cap_ > 0) note(e.conn_id, e.ts, false);
      }
      return std::nullopt;
    }
    SimTime req;
    if (rpc) {
      const auto it = rpc_.find(e.msg_id);
      if (it == rpc_.end()) return std::nullopt;
      req = it->second;
      rpc_.erase(it);
    } else {
      const auto it = rest_.find(e.conn_id);
      if (it == rest_.end()) return std::nullopt;
      req = it->second;
      rest_.erase(it);
    }
    compact();
    if (timeout_ > 0.0 && (e.ts - req).to_seconds() > timeout_) {
      ++guards_.orphans_reaped;
      return std::nullopt;
    }
    double ms = (e.ts - req).to_millis();
    if (ms < 0.0) {
      ms = 0.0;
      ++guards_.clamped_negative;
    }
    ++samples_;
    auto& d = detectors_.try_emplace(e.api).first->second;
    return LatencySample{e.api, e.ts, ms, d.observe(e.ts.to_seconds(), ms)};
  }

  void sweep_now(SimTime now) {
    if (timeout_ <= 0.0) return;
    since_sweep_ = 0;
    sweep(now);
  }

  std::size_t pending() const { return rest_.size() + rpc_.size(); }
  std::size_t inflight_queue() const { return fifo_.size() - head_; }
  const LatencyGuardStats& guards() const { return guards_; }

  std::string save() const {
    std::string out;
    std::vector<std::uint32_t> rk;
    for (const auto& [k, ts] : rest_) rk.push_back(k);
    std::sort(rk.begin(), rk.end());
    util::put_u32(out, static_cast<std::uint32_t>(rk.size()));
    for (auto k : rk) {
      util::put_u32(out, k);
      util::put_i64(out, rest_.at(k).nanos());
    }
    std::vector<std::uint64_t> mk;
    for (const auto& [k, ts] : rpc_) mk.push_back(k);
    std::sort(mk.begin(), mk.end());
    util::put_u32(out, static_cast<std::uint32_t>(mk.size()));
    for (auto k : mk) {
      util::put_u64(out, k);
      util::put_i64(out, rpc_.at(k).nanos());
    }
    std::vector<wire::ApiId> apis;
    for (const auto& [api, d] : detectors_) apis.push_back(api);
    std::sort(apis.begin(), apis.end());
    util::put_u32(out, static_cast<std::uint32_t>(apis.size()));
    for (auto api : apis) {
      util::put_u16(out, api.value());
      detectors_.at(api).save_state(out);
    }
    std::uint32_t live = 0;
    for (std::size_t i = head_; i < fifo_.size(); ++i) live += !stale(fifo_[i]);
    util::put_u32(out, live);
    for (std::size_t i = head_; i < fifo_.size(); ++i) {
      if (stale(fifo_[i])) continue;
      util::put_u64(out, fifo_[i].key);
      util::put_i64(out, fifo_[i].ts.nanos());
      util::put_u8(out, fifo_[i].rpc ? 1 : 0);
    }
    util::put_u64(out, samples_);
    util::put_u32(out, since_sweep_);
    util::put_u64(out, guards_.clamped_negative);
    util::put_u64(out, guards_.rejected_nonfinite);
    util::put_u64(out, guards_.orphans_reaped);
    util::put_u64(out, guards_.inflight_evicted);
    return out;
  }

 private:
  struct Entry {
    std::uint64_t key;
    SimTime ts;
    bool rpc;
  };

  bool stale(const Entry& e) const {
    if (e.rpc) {
      const auto it = rpc_.find(e.key);
      return it == rpc_.end() || it->second != e.ts;
    }
    const auto it = rest_.find(static_cast<std::uint32_t>(e.key));
    return it == rest_.end() || it->second != e.ts;
  }

  void note(std::uint64_t key, SimTime ts, bool rpc) {
    fifo_.push_back({key, ts, rpc});
    while (pending() > cap_ && head_ < fifo_.size()) {
      const Entry e = fifo_[head_++];
      if (stale(e)) continue;
      if (e.rpc) {
        rpc_.erase(e.key);
      } else {
        rest_.erase(static_cast<std::uint32_t>(e.key));
      }
      ++guards_.inflight_evicted;
    }
    compact();
  }

  void compact() {
    if (fifo_.size() <= 2 * pending() + 64) return;
    std::size_t w = 0;
    for (std::size_t r = head_; r < fifo_.size(); ++r)
      if (!stale(fifo_[r])) fifo_[w++] = fifo_[r];
    fifo_.resize(w);
    head_ = 0;
  }

  void sweep(SimTime now) {
    const auto expired = [&](SimTime t) {
      return (now - t).to_seconds() > timeout_;
    };
    for (auto it = rest_.begin(); it != rest_.end();) {
      if (expired(it->second)) {
        it = rest_.erase(it);
        ++guards_.orphans_reaped;
      } else {
        ++it;
      }
    }
    for (auto it = rpc_.begin(); it != rpc_.end();) {
      if (expired(it->second)) {
        it = rpc_.erase(it);
        ++guards_.orphans_reaped;
      } else {
        ++it;
      }
    }
    compact();
  }

  double timeout_;
  std::size_t cap_;
  std::unordered_map<std::uint32_t, SimTime> rest_;
  std::unordered_map<std::uint64_t, SimTime> rpc_;
  std::unordered_map<wire::ApiId, LevelShiftDetector> detectors_;
  std::vector<Entry> fifo_;
  std::size_t head_ = 0;
  std::uint64_t samples_ = 0;
  std::uint32_t since_sweep_ = 0;
  LatencyGuardStats guards_;
};

using SampleKey = std::tuple<bool, std::uint16_t, std::int64_t, double, bool>;

SampleKey key_of(const std::optional<LatencySample>& s) {
  if (!s) return {false, 0, 0, 0.0, false};
  return {true, s->api.value(), s->when.nanos(), s->latency_ms,
          s->alarm.has_value()};
}

std::string save(const LatencyTracker& t) {
  std::string out;
  t.save_state(out);
  return out;
}

struct Scenario {
  double orphan_timeout_s;
  std::size_t inflight_cap;
};

void PrintTo(const Scenario& s, std::ostream* os) {
  *os << "timeout " << s.orphan_timeout_s << " s, cap " << s.inflight_cap;
}

class PendingTableProperty
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(PendingTableProperty, MatchesReferenceTracker) {
  const auto [scenario, seed] = GetParam();
  LatencyTracker tracker;
  tracker.set_orphan_timeout_seconds(scenario.orphan_timeout_s);
  tracker.set_inflight_cap(scenario.inflight_cap);
  ReferenceTracker ref(scenario.orphan_timeout_s, scenario.inflight_cap);

  util::Rng rng(seed);
  SimTime now = SimTime::epoch() + SimDuration::seconds(1);
  for (int step = 0; step < 20000; ++step) {
    // Mostly forward time; an occasional skewed (backwards) capture stamp.
    const auto jump_ms = rng.next_below(40);
    wire::Event e;
    e.ts = rng.next_below(50) == 0
               ? now - SimDuration::millis(static_cast<std::int64_t>(
                           rng.next_below(30)))
               : (now += SimDuration::millis(
                      static_cast<std::int64_t>(jump_ms)));
    e.api = wire::ApiId(static_cast<std::uint16_t>(rng.next_below(4)));
    e.kind = rng.next_below(2) ? wire::ApiKind::Rpc : wire::ApiKind::Rest;
    e.dir = rng.next_below(100) < 55 ? wire::Direction::Request
                                     : wire::Direction::Response;
    e.status = e.is_response() ? 200 : 0;
    // REST and RPC ids overlap numerically: the table must keep the two
    // kinds apart.  RPC ids sometimes use the high 32 bits.
    const auto id = 1 + rng.next_below(300);
    if (e.kind == wire::ApiKind::Rest) {
      e.conn_id = static_cast<std::uint32_t>(id);
    } else {
      e.msg_id = rng.next_below(4) == 0 ? id | (std::uint64_t{1} << 40) : id;
    }

    ASSERT_EQ(key_of(tracker.observe(e)), key_of(ref.observe(e)))
        << "step " << step;
    if (rng.next_below(200) == 0) {
      tracker.sweep_now(now);
      ref.sweep_now(now);
    }
    ASSERT_EQ(tracker.pending(), ref.pending()) << "step " << step;
    ASSERT_EQ(tracker.inflight_queue(), ref.inflight_queue());
    const auto& g = tracker.guard_stats();
    ASSERT_EQ(g.orphans_reaped, ref.guards().orphans_reaped);
    ASSERT_EQ(g.inflight_evicted, ref.guards().inflight_evicted);
    ASSERT_EQ(g.clamped_negative, ref.guards().clamped_negative);
    if (step % 997 == 0) {
      ASSERT_EQ(save(tracker), ref.save()) << "step " << step;
    }
  }
  const std::string blob = save(tracker);
  EXPECT_EQ(blob, ref.save());

  // The blob restores to a tracker that saves the same bytes.
  LatencyTracker restored;
  restored.set_orphan_timeout_seconds(scenario.orphan_timeout_s);
  restored.set_inflight_cap(scenario.inflight_cap);
  std::string_view in(blob);
  ASSERT_TRUE(restored.load_state(in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(save(restored), blob);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PendingTableProperty,
    ::testing::Combine(::testing::Values(Scenario{0.0, 0}, Scenario{2.0, 0},
                                         Scenario{0.0, 16},
                                         Scenario{1.5, 40}),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      const Scenario s = std::get<0>(info.param);
      return "timeout" +
             std::to_string(static_cast<int>(s.orphan_timeout_s * 10)) +
             "_cap" + std::to_string(s.inflight_cap) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gretel::detect
