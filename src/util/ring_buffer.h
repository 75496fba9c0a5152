// Fixed-capacity ring buffer.
//
// RingBuffer backs GRETEL's dual-buffer event receiver (§6 of the paper):
// events are appended at line rate and the anomaly detector freezes windows
// of the most recent α entries by index, without copying.  It is
// single-threaded by design.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gretel::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : capacity_(capacity), data_(capacity) {
    assert(capacity > 0);
  }

  // Appends an element, overwriting the oldest if full.  Returns the
  // monotonically increasing global sequence number of the element.
  std::uint64_t push(T value) {
    data_[static_cast<std::size_t>(next_seq_ % capacity_)] = std::move(value);
    return next_seq_++;
  }

  // Oldest sequence number still resident.
  std::uint64_t first_seq() const {
    return next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
  }
  // One past the newest sequence number.
  std::uint64_t end_seq() const { return next_seq_; }

  bool contains(std::uint64_t seq) const {
    return seq >= first_seq() && seq < next_seq_;
  }

  // Element by global sequence number; the caller must check contains().
  const T& at(std::uint64_t seq) const {
    assert(contains(seq));
    return data_[static_cast<std::size_t>(seq % capacity_)];
  }

  // Mutable view of the most recently pushed element (the caller must have
  // pushed at least once).  Lets a caller push first and stamp in-ring
  // fields after, instead of copying the element just to mutate it.
  T& back() {
    assert(next_seq_ > 0);
    return data_[static_cast<std::size_t>((next_seq_ - 1) % capacity_)];
  }

  // Copies the residents of [from, to) into a vector (clamped to what is
  // still buffered).  This is the "freeze between two pointers" snapshot.
  std::vector<T> snapshot(std::uint64_t from, std::uint64_t to) const {
    if (from < first_seq()) from = first_seq();
    if (to > next_seq_) to = next_seq_;
    std::vector<T> out;
    if (from >= to) return out;
    out.reserve(static_cast<std::size_t>(to - from));
    for (std::uint64_t s = from; s < to; ++s) out.push_back(at(s));
    return out;
  }

  std::size_t size() const {
    return static_cast<std::size_t>(next_seq_ - first_seq());
  }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return next_seq_ == 0; }

 private:
  std::size_t capacity_;
  std::vector<T> data_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gretel::util
