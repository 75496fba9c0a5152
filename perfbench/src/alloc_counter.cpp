// Counting global operator new, after bench/bench_ingest_hotpath.cpp.  The
// benchmark drives one analysis thread, but the counter is atomic so a
// stray allocation on another thread cannot tear it.
#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<int> g_paused{0};

inline void count_alloc() {
  if (g_paused.load(std::memory_order_relaxed) == 0)
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

AllocPause::AllocPause() { g_paused.fetch_add(1, std::memory_order_relaxed); }
AllocPause::~AllocPause() { g_paused.fetch_sub(1, std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc();
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
