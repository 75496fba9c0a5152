#include "util/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace gretel::util {
namespace {

TEST(RingBuffer, PushReturnsSequence) {
  RingBuffer<int> rb(4);
  EXPECT_EQ(rb.push(10), 0u);
  EXPECT_EQ(rb.push(11), 1u);
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, AtBySequence) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 4; ++i) rb.push(100 + i);
  for (std::uint64_t s = 0; s < 4; ++s) {
    EXPECT_EQ(rb.at(s), 100 + static_cast<int>(s));
  }
}

TEST(RingBuffer, OverwritesOldest) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 5; ++i) rb.push(i);
  EXPECT_EQ(rb.first_seq(), 2u);
  EXPECT_EQ(rb.end_seq(), 5u);
  EXPECT_FALSE(rb.contains(1));
  EXPECT_TRUE(rb.contains(2));
  EXPECT_EQ(rb.at(4), 4);
  EXPECT_EQ(rb.size(), 3u);
}

TEST(RingBuffer, SnapshotExactRange) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 8; ++i) rb.push(i * i);
  const auto snap = rb.snapshot(2, 5);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0], 4);
  EXPECT_EQ(snap[2], 16);
}

TEST(RingBuffer, SnapshotClampsToResidents) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 6; ++i) rb.push(i);  // residents: 3,4,5
  const auto snap = rb.snapshot(0, 100);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front(), 3);
  EXPECT_EQ(snap.back(), 5);
}

TEST(RingBuffer, SnapshotEmptyWhenRangeInverted) {
  RingBuffer<int> rb(3);
  rb.push(1);
  EXPECT_TRUE(rb.snapshot(1, 1).empty());
  EXPECT_TRUE(rb.snapshot(5, 2).empty());
}

TEST(RingBuffer, EmptyProperties) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.first_seq(), 0u);
  EXPECT_EQ(rb.end_seq(), 0u);
  EXPECT_FALSE(rb.contains(0));
}

// Property sweep: for any capacity and push count, the resident window is
// exactly the last min(capacity, pushes) elements.
class RingBufferProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingBufferProperty, ResidentWindowInvariant) {
  const auto [capacity, pushes] = GetParam();
  RingBuffer<int> rb(static_cast<std::size_t>(capacity));
  for (int i = 0; i < pushes; ++i) rb.push(i);
  const auto expected =
      std::min<std::uint64_t>(capacity, static_cast<std::uint64_t>(pushes));
  EXPECT_EQ(rb.size(), expected);
  EXPECT_EQ(rb.end_seq(), static_cast<std::uint64_t>(pushes));
  EXPECT_EQ(rb.first_seq(), static_cast<std::uint64_t>(pushes) - expected);
  for (auto s = rb.first_seq(); s < rb.end_seq(); ++s) {
    EXPECT_EQ(rb.at(s), static_cast<int>(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingBufferProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16, 64),
                       ::testing::Values(0, 1, 5, 16, 100)));

}  // namespace
}  // namespace gretel::util
