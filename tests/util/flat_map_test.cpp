#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace gretel::util {
namespace {

struct MixHash {
  std::uint64_t operator()(std::uint32_t k) const { return mix64(k); }
};
// Every key lands on one of three homes: long clusters that wrap around
// the end of the slot array, so backward-shift deletion is exercised on
// every path.
struct CollidingHash {
  std::uint64_t operator()(std::uint32_t k) const {
    return 13 + (k % 3);
  }
};

template <typename Map>
std::vector<std::pair<std::uint32_t, std::int64_t>> sorted_entries(
    const Map& m) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> out;
  m.for_each([&](std::uint32_t k, std::int64_t v) { out.push_back({k, v}); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::uint32_t, std::int64_t>> sorted_entries(
    const std::unordered_map<std::uint32_t, std::int64_t>& m) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> out(m.begin(), m.end());
  std::sort(out.begin(), out.end());
  return out;
}

// Seeded random operations against std::unordered_map: every lookup, every
// return value and the final contents must agree.
template <typename Hash>
void run_against_reference(std::uint64_t seed, std::uint32_t key_space,
                           int ops) {
  FlatMap<std::uint32_t, std::int64_t, Hash> flat;
  std::unordered_map<std::uint32_t, std::int64_t> ref;
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(key_space));
    const auto value = static_cast<std::int64_t>(rng.next_u64() >> 1);
    switch (rng.next_below(6)) {
      case 0:
      case 1:
        flat.insert_or_assign(key, value);
        ref[key] = value;
        break;
      case 2:
        ASSERT_EQ(flat.try_insert(key, value), ref.emplace(key, value).second);
        break;
      case 3:
        ASSERT_EQ(flat.erase(key), ref.erase(key) == 1);
        break;
      case 4: {
        const auto* got = flat.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << i;
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      default: {
        if (rng.next_below(50) != 0) break;
        // Sweep roughly a third of the entries.
        const auto pred = [](std::uint32_t k, std::int64_t v) {
          return (k + static_cast<std::uint64_t>(v)) % 3 == 0;
        };
        std::size_t expect = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (pred(it->first, it->second)) {
            it = ref.erase(it);
            ++expect;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(flat.erase_if(pred), expect);
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << i;
  }
  EXPECT_EQ(sorted_entries(flat), sorted_entries(ref));
  // Every surviving key is still reachable after all the shifting.
  for (const auto& [k, v] : ref) {
    const auto* got = flat.find(k);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, v);
  }
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_against_reference<MixHash>(seed, 512, 20000);
}

TEST(FlatMap, CollidingClustersMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_against_reference<CollidingHash>(seed, 40, 5000);
}

TEST(FlatMap, EraseIfVisitsEveryEntryOfAWrappedCluster) {
  FlatMap<std::uint32_t, std::int64_t, CollidingHash> m;
  for (std::uint32_t k = 0; k < 7; ++k) m.insert_or_assign(k, k);
  // 7 entries in a 16-slot table homed at 13..15: the cluster wraps.
  ASSERT_EQ(m.capacity(), 16u);
  EXPECT_EQ(m.erase_if([](std::uint32_t k, std::int64_t) { return k != 5; }),
            6u);
  ASSERT_EQ(m.size(), 1u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 5);
}

TEST(FlatMap, SteadyChurnKeepsItsCapacity) {
  // Insert-on-request / erase-on-response with fresh keys: once the table
  // has grown to the in-flight high water, it never grows again.
  FlatMap<std::uint32_t, std::int64_t, MixHash> m;
  for (std::uint32_t k = 0; k < 100; ++k) m.insert_or_assign(k, k);
  const auto cap = m.capacity();
  for (std::uint32_t k = 100; k < 100000; ++k) {
    m.insert_or_assign(k, k);
    ASSERT_TRUE(m.erase(k - 100));
  }
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, ClearKeepsSlots) {
  FlatMap<std::uint32_t, std::int64_t, MixHash> m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  for (std::uint32_t k = 0; k < 40; ++k) m.insert_or_assign(k, 1);
  const auto cap = m.capacity();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(m.capacity(), cap);
}

}  // namespace
}  // namespace gretel::util
