#include "util/slot_ring.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "util/rng.h"

namespace gretel::util {
namespace {

TEST(SlotRing, FifoOrderAcrossWrap) {
  SlotRing<int> r;
  for (int i = 0; i < 4; ++i) r.claim_back() = i;
  r.pop_front();
  r.pop_front();
  r.claim_back() = 4;
  r.claim_back() = 5;  // wraps into the freed slots
  EXPECT_EQ(r.slots(), 4u);
  ASSERT_EQ(r.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], i + 2);
  EXPECT_EQ(r.front(), 2);
}

TEST(SlotRing, GrowsOnlyToHighWaterDepth) {
  SlotRing<int> r;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) r.claim_back() = i;
    while (!r.empty()) r.pop_front();
  }
  EXPECT_EQ(r.slots(), 7u);
}

TEST(SlotRing, GrowingWhileWrappedKeepsOrder) {
  SlotRing<int> r;
  for (int i = 0; i < 3; ++i) r.claim_back() = i;
  r.pop_front();
  r.claim_back() = 3;  // full and wrapped: head is slot 1
  r.claim_back() = 4;  // grows: the queue is rotated into slot order first
  ASSERT_EQ(r.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], i + 1);
}

TEST(SlotRing, SlotsKeepTheirBuffers) {
  SlotRing<std::string> r;
  r.claim_back() = std::string(200, 'a');
  r.pop_front();
  EXPECT_TRUE(r.empty());
  std::string& slot = r.claim_back();
  const auto* buffer = slot.data();
  slot = std::string_view("reused");
  EXPECT_EQ(slot.data(), buffer);
  EXPECT_EQ(r.front(), "reused");
}

TEST(SlotRing, MatchesDequeUnderRandomOps) {
  SlotRing<std::uint64_t> r;
  std::deque<std::uint64_t> ref;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto op = rng.next_below(10);
    if (op < 5) {
      const auto v = rng.next_u64();
      r.claim_back() = v;
      ref.push_back(v);
    } else if (op < 9) {
      if (!ref.empty()) {
        r.pop_front();
        ref.pop_front();
      }
    } else if (rng.next_below(20) == 0) {
      r.clear();
      ref.clear();
    }
    ASSERT_EQ(r.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(r.front(), ref.front());
      ASSERT_EQ(r[r.size() - 1], ref.back());
    }
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(r[i], ref[i]);
}

}  // namespace
}  // namespace gretel::util
