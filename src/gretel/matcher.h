// Fingerprint matching (Algorithm 2 and §5.3.1's relaxation).
//
// Production path: fingerprints are truncated at the last occurrence of the
// offending API, and a truncated fingerprint matches a snapshot when its
// *state-change* literals appear in order inside the snapshot (read-only
// APIs are optional, interleaved foreign symbols are skipped) — a
// subsequence check over symbols.  An equivalent std::regex backend (each
// literal joined by ".*", the paper offloaded this to Perl) is kept behind
// the same interface for the matcher ablation bench.
//
// The symbol loops dispatch to the util/simd.h kernels: truncation is one
// find_last_eq/find_first_eq, and the subsequence scan skips ahead to each
// literal's next occurrence with vector compares instead of striding one
// symbol per iteration.  SIMD and scalar builds produce bit-identical
// results (the kernels are property-tested against their scalar twins).
//
// Thread safety: a constructed Matcher is immutable on the production
// symbol-subsequence path — every query method is const and keeps its
// scratch state on the stack — so one instance may serve concurrent match
// calls without locking.  The std::regex ablation backend memoizes
// compiled patterns behind a mutex (compiling dominated every call before;
// see regex_cache_), which keeps its const query methods safe to share
// too; lookups take the lock briefly, the regex search itself runs outside
// it.
#pragma once

#include <cstdint>
#include <mutex>
#include <regex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/simd.h"
#include "wire/api.h"

namespace gretel::core {

// ApiId is a StrongId wrapping a single uint16_t, so a span of ApiIds can be
// scanned as a dense uint16 column by the SIMD kernels.
static_assert(sizeof(wire::ApiId) == sizeof(std::uint16_t) &&
                  std::is_trivially_copyable_v<wire::ApiId>,
              "SIMD symbol kernels rely on ApiId being a bare uint16");

inline const std::uint16_t* symbol_data(std::span<const wire::ApiId> seq) {
  return reinterpret_cast<const std::uint16_t*>(seq.data());
}

// 64-bit symbol-presence fingerprint of a sequence (see simd.h): lets
// Algorithm 2 reject candidates sharing no symbol with the snapshot — or
// missing a required literal — with one AND before any O(n) scan.
inline std::uint64_t symbol_fingerprint(std::span<const wire::ApiId> seq) {
  return simd::presence_mask_u16(symbol_data(seq), seq.size());
}

enum class MatchBackend {
  SymbolSubsequence,  // production: SIMD skip-ahead subsequence over ApiIds
  StdRegex,           // ablation: textual regex over an encoded alphabet
};

class Matcher {
 public:
  struct Options {
    // When false (the paper's §6 optimization), RPC symbols are pruned from
    // the required literals, leaving REST state changes as anchors.
    bool include_rpc = false;
    MatchBackend backend = MatchBackend::SymbolSubsequence;
  };

  Matcher(const wire::ApiCatalog* catalog, Options options);

  // TRUNCATE_OPERATION_FINGERPRINTS: prefix of `seq` through the last
  // occurrence of `api` (the whole sequence if absent — performance faults
  // use the untruncated form).  Returns a view into `seq`; no allocation.
  static std::span<const wire::ApiId> truncate_at_last(
      std::span<const wire::ApiId> seq, wire::ApiId api);

  // Prefix through the *first* occurrence.  When an API repeats inside a
  // fingerprint, the detector cannot know which occurrence failed; a
  // candidate matches some occurrence's truncated prefix iff it matches the
  // first occurrence's (shorter prefixes demand a subset of the literals),
  // so aborted operations are matched through this form.  Algorithm 2's
  // FIND_LAST_OCCURENCE coincides with it when fingerprints don't repeat
  // the offending API.  Returns a view into `seq`; no allocation.
  static std::span<const wire::ApiId> truncate_at_first(
      std::span<const wire::ApiId> seq, wire::ApiId api);

  // Required literals of a (possibly truncated) fingerprint sequence:
  // state-change APIs, with RPCs pruned unless include_rpc.
  std::vector<wire::ApiId> required_literals(
      std::span<const wire::ApiId> seq) const;

  // True when `literals` appear in order within `snapshot`.
  bool matches(std::span<const wire::ApiId> literals,
               std::span<const wire::ApiId> snapshot) const;

  const Options& options() const { return options_; }

  // Compiled-pattern cache hits/misses of the regex backend (ablation
  // telemetry; always 0 on the production backend).
  std::uint64_t regex_cache_hits() const { return regex_cache_hits_; }
  std::uint64_t regex_cache_misses() const { return regex_cache_misses_; }

 private:
  static bool subsequence_match(std::span<const wire::ApiId> literals,
                                std::span<const wire::ApiId> snapshot);
  bool regex_match(std::span<const wire::ApiId> literals,
                   std::span<const wire::ApiId> snapshot) const;
  // Two-character encoding of an ApiId over a regex-safe alphabet.
  static void encode_api(wire::ApiId api, std::string& out);

  const wire::ApiCatalog* catalog_;
  Options options_;
  // Compiled std::regex patterns, keyed by the encoded literal sequence
  // (the pattern string is a bijection of it).  Compilation used to happen
  // on every regex_match call and dominated the backend's cost.  unordered_
  // map references are stable across rehash, so a cached entry can be
  // searched after the lock is released.
  mutable std::mutex regex_mutex_;
  mutable std::unordered_map<std::string, std::regex> regex_cache_;
  mutable std::uint64_t regex_cache_hits_ = 0;
  mutable std::uint64_t regex_cache_misses_ = 0;
};

}  // namespace gretel::core
