// FIFO queue over a ring of reused slots.
//
// std::deque allocates a block every few pushes and frees it as the front
// drains, so a queue that sits at a steady depth still allocates at line
// rate.  SlotRing keeps every slot it ever used: claim_back hands out the
// next slot for the caller to assign into (a slot holding a std::string
// reuses its buffer), pop_front only advances the head, and the ring grows
// by one slot only when a claim finds every slot occupied — so its size is
// the queue's high-water depth, and a queue that stays below it allocates
// nothing.
//
// The caller bounds the depth (pop before pushing past its limit); the
// ring itself never drops anything.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace gretel::util {

template <typename T>
class SlotRing {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots held (the high-water depth so far).
  std::size_t slots() const { return slots_.size(); }

  // Element i of the queue, 0 = front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  T& front() { return (*this)[0]; }

  // Makes room for `n` slots up front, so growing to that depth allocates
  // nothing (for element types whose default construction does not).
  void reserve(std::size_t n) { slots_.reserve(n); }

  // Appends an element and returns its slot.  The slot still holds what it
  // held when it was last popped, so the caller assigns every field —
  // assigning (rather than constructing) is what lets the slot's buffers
  // be reused.
  T& claim_back() {
    if (size_ == slots_.size()) {
      // Every slot is live: put the queue in slot order, then add a slot
      // at the end.
      std::rotate(slots_.begin(), slots_.begin() + head_, slots_.end());
      head_ = 0;
      slots_.emplace_back();
    }
    return slots_[wrap(head_ + size_++)];
  }

  // Drops the front element; its slot (and what it owns) stays for reuse.
  // An emptied ring restarts at slot 0.
  void pop_front() {
    assert(size_ > 0);
    head_ = --size_ == 0 ? 0 : wrap(head_ + 1);
  }

  // Drops every element, keeping the slots.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gretel::util
