// Heap-allocation counter fed by the counting global operator new in
// alloc_counter.cpp (linked into the benchmark binary only).  Differences of
// alloc_count() across a call give that call's allocations.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t alloc_count();

// While a Pause is alive, allocations are not counted (used around the
// benchmark's own bookkeeping inside callbacks the program invokes).
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

}  // namespace perfbench
