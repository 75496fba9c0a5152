// Bump/slab arena for the ingestion hot path.
//
// The capture tap decodes thousands of messages per second; giving every
// header field and normalized URI its own std::string puts a malloc/free
// pair on the critical path of each event.  The arena replaces that with a
// pointer bump: allocations live until reset(), which recycles every slab
// in O(slabs) without touching the heap.  After warmup (once the slab list
// has grown to the batch's high-water mark) the steady state performs zero
// heap allocations per decoded event — the property bench_ingest_hotpath
// asserts.
//
// Not thread-safe: one arena per decoding thread (CaptureTap owns one).
// Lifetime rule: anything allocated here is dead after reset(); only data
// copied out into the flat wire::Event may outlive the record.  See
// docs/ARCHITECTURE.md, "Hot path & memory model".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gretel::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = 64 * 1024;

  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes == 0 ? kDefaultSlabBytes : slab_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialized storage; align must be a power of two.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
    std::size_t offset = (cursor_ + align - 1) & ~(align - 1);
    if (current_ >= slabs_.size() || offset + size > slabs_[current_].size) {
      next_slab(size + align);
      offset = (cursor_ + align - 1) & ~(align - 1);
    }
    cursor_ = offset + size;
    bytes_used_ += size;
    return slabs_[current_].data.get() + offset;
  }

  // Typed uninitialized array (caller constructs the elements in place; the
  // view codecs only store trivially-destructible types here).
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  // Copies `s` into the arena; the returned view dies at reset().
  std::string_view copy(std::string_view s) {
    if (s.empty()) return {};
    char* dst = static_cast<char*>(allocate(s.size(), 1));
    std::memcpy(dst, s.data(), s.size());
    return {dst, s.size()};
  }

  // Recycles every slab.  Retains capacity, so a warmed-up arena allocates
  // nothing from the heap on subsequent batches of the same size.
  void reset() {
    current_ = 0;
    cursor_ = 0;
    bytes_used_ = 0;
    ++resets_;
  }

  // Releases slab memory back to the heap (tests / shutdown).
  void release() {
    slabs_.clear();
    current_ = 0;
    cursor_ = 0;
    bytes_used_ = 0;
  }

  std::size_t slab_count() const { return slabs_.size(); }
  std::size_t bytes_used() const { return bytes_used_; }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Slab {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  // Advances to the next slab that can hold `need` bytes, creating one if
  // the retained list is exhausted (or the existing next slab is too small
  // for an oversized allocation).
  void next_slab(std::size_t need) {
    const std::size_t want = need > slab_bytes_ ? need : slab_bytes_;
    std::size_t next = slabs_.empty() ? 0 : current_ + 1;
    while (next < slabs_.size() && slabs_[next].size < want) ++next;
    if (next >= slabs_.size()) {
      slabs_.push_back(Slab{std::make_unique<char[]>(want), want});
      next = slabs_.size() - 1;
    }
    current_ = next;
    cursor_ = 0;
  }

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::size_t current_ = 0;  // index of the slab being bumped
  std::size_t cursor_ = 0;   // bump offset within the current slab
  std::size_t bytes_used_ = 0;
  std::uint64_t resets_ = 0;
};

}  // namespace gretel::util
