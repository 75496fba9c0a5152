// Fingerprint matching (Algorithm 2 and §5.3.1's relaxation).
//
// Production path: fingerprints are truncated at the last occurrence of the
// offending API, and a truncated fingerprint matches a snapshot when its
// *state-change* literals appear in order inside the snapshot (read-only
// APIs are optional, interleaved foreign symbols are skipped) — a
// subsequence check over symbols.  It is the paper's regex (each literal
// joined by ".*", which the paper offloaded to Perl) evaluated over ApiIds
// instead of text; tests pin the equivalence against a std::regex
// reference.
//
// The symbol loops dispatch to the util/simd.h kernels: truncation is one
// find_last_eq/find_first_eq, and the subsequence scan skips ahead to each
// literal's next occurrence with vector compares instead of striding one
// symbol per iteration.  SIMD and scalar builds produce bit-identical
// results (the kernels are property-tested against their scalar twins).
//
// Thread safety: a constructed Matcher is immutable — every query method
// is const and keeps its scratch state on the stack — so one instance may
// serve concurrent match calls without locking.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
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

class Matcher {
 public:
  // When `include_rpc` is false (the paper's §6 optimization), RPC symbols
  // are pruned from the required literals, leaving REST state changes as
  // anchors.
  Matcher(const wire::ApiCatalog* catalog, bool include_rpc);

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

  // True when `literals` appear in order within `snapshot`; an empty
  // literal list anchors nothing and never matches.
  static bool matches(std::span<const wire::ApiId> literals,
                      std::span<const wire::ApiId> snapshot);

 private:
  const wire::ApiCatalog* catalog_;
  bool include_rpc_;
};

}  // namespace gretel::core
