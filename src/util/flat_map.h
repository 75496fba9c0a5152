// Flat open-addressed hash map for small trivially copyable keys and
// values: the pairing tables the ingestion hot path touches once per
// message (the tap's open REST connections, the latency tracker's pending
// requests).
//
// One contiguous slot array, linear probing, power-of-two capacity kept at
// most half full.  Deletion shifts the rest of the probe cluster back
// instead of leaving tombstones, so a table whose entries come and go
// (insert on request, erase on response) never degrades and never
// rehashes: once it has grown to its high-water occupancy, insert and
// erase allocate nothing.  Iteration order is slot order — callers that
// need a deterministic order (checkpoints) sort what they read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace gretel::util {

// splitmix64 finalizer: spreads sequential ids (conn ids, msg ids) over the
// whole table so probe clusters stay short.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Hash must be a callable `std::uint64_t(const K&)`; K needs operator==.
template <typename K, typename V, typename Hash>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "FlatMap slots are moved by plain copies");

 public:
  std::size_t size() const { return size_; }
  // Slots allocated (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  const V* find(const K& key) const {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  // Inserts `key` or overwrites its value.
  void insert_or_assign(const K& key, const V& value) {
    Slot& s = probe_for_insert(key);
    s.value = value;
  }

  // Inserts `key` only when absent; returns whether it did (the
  // emplace semantics a loader of untrusted bytes wants: first one wins).
  bool try_insert(const K& key, const V& value) {
    const std::size_t before = size_;
    Slot& s = probe_for_insert(key);
    if (size_ == before) return false;
    s.value = value;
    return true;
  }

  // Removes `key`; returns whether it was present.
  bool erase(const K& key) {
    const std::size_t i = locate(key);
    if (i == kNone) return false;
    erase_at(i);
    return true;
  }

  // Removes every entry for which pred(key, value) holds; returns how many.
  // pred must be pure: a backward shift can carry an already-kept entry
  // into the slot being re-examined, so an entry may be asked twice.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& s = slots_[i];
      if (s.used && pred(std::as_const(s.key), std::as_const(s.value))) {
        erase_at(i);  // a later entry may have shifted into slot i
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  // Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

  // Empties the table, keeping its slots for reuse.
  void clear() {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(Hash{}(key)) & (slots_.size() - 1);
  }

  std::size_t locate(const K& key) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used) return kNone;
      if (s.key == key) return i;
    }
  }

  // The slot holding `key`, claiming a free one (and counting it) when the
  // key is absent.
  Slot& probe_for_insert(const K& key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.key = key;
        s.used = true;
        ++size_;
        return s;
      }
      if (s.key == key) return s;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinCapacity : 2 * old.size(), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.used) probe_for_insert(s.key).value = s.value;
    }
  }

  // Backward-shift deletion: walk the cluster after the hole and pull back
  // each entry whose probe path passes through the hole.
  void erase_at(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].used;
         j = (j + 1) & mask) {
      // Entry j may fill the hole iff the hole lies on its probe path,
      // i.e. its distance from home is at least the hole's distance.
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace gretel::util
