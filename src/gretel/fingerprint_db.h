// The fingerprint database the analyzer matches against.
//
// Holds one fingerprint per characterized operation (1200 at full Tempest
// scale), with an inverted index from ApiId to the fingerprints containing
// it — GET_POSSIBLE_OFFENDING_OPERATIONS of Algorithm 2 is a single lookup.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "gretel/fingerprint.h"
#include "gretel/matcher.h"

namespace gretel::core {

class FingerprintDb {
 public:
  using Index = std::uint32_t;

  Index add(Fingerprint fp);

  std::size_t size() const { return fingerprints_.size(); }
  const Fingerprint& get(Index i) const { return fingerprints_[i]; }
  const std::vector<Fingerprint>& all() const { return fingerprints_; }

  // Fingerprints whose sequence contains `api`.
  const std::vector<Index>& containing(wire::ApiId api) const;

  // 64-bit symbol-presence fingerprint of sequence `i` (see
  // core::symbol_fingerprint): Alg. 2 rejects candidates that share no
  // symbol with the snapshot with one AND against this mask before any
  // O(n) scan.
  std::uint64_t sequence_mask(Index i) const { return masks_[i]; }

  // FPmax: the largest fingerprint size across all operations (the α input,
  // §5.3.1 / §7 "Empirical determination of thresholds").
  std::size_t max_fingerprint_size() const { return max_size_; }

 private:
  std::vector<Fingerprint> fingerprints_;
  std::vector<std::uint64_t> masks_;  // parallel to fingerprints_
  std::unordered_map<wire::ApiId, std::vector<Index>> by_api_;
  std::vector<Index> empty_;
  std::size_t max_size_ = 0;
};

// Precomputed candidate literal variants, built once from a loaded database.
//
// Algorithm 2 probes, for every candidate fingerprint, the required-literal
// lists of its prefixes truncated at each occurrence of the offending API.
// Those lists depend only on (fingerprint, offending api, matcher options) —
// never on the snapshot — yet the detector used to rebuild them on every
// snapshot.  VariantCache materializes them at load time, listed per
// offending api; detect() then reads them in place and allocates nothing.
//
// Variant order and contents replicate the detector's original on-the-fly
// construction exactly (occurrences scanned last-to-first, consecutive
// duplicate lengths dropped, empty variants erased, `{api}` fallback when
// nothing anchors), so cached detection results are bit-identical.
class VariantCache {
 public:
  // Builds the full cache: one entry per (fingerprint, distinct api in its
  // sequence).  `matcher` supplies required_literals.
  VariantCache(const FingerprintDb& db, const Matcher& matcher);

  // Literal variants with their 64-bit symbol-presence masks: masks[vi]
  // fingerprints literals[vi], so the detector can skip a variant whose
  // literals cannot occur in the snapshot with one AND.
  struct VariantSet {
    std::vector<std::vector<wire::ApiId>> literals;
    std::vector<std::uint64_t> masks;  // parallel to literals
    std::uint64_t any_mask = 0;        // OR of masks
  };

  // One candidate fingerprint's variants for one offending api.
  struct Candidate {
    FingerprintDb::Index index = 0;
    // Truncated-prefix variants for operational faults, deepest first;
    // never empty.
    VariantSet truncated;
    // The single full-fingerprint variant for performance faults (the
    // `{api}` fallback applied when the fingerprint has no required
    // literals at all).
    VariantSet full;
  };

  // The candidates for offending api `api`, in FingerprintDb::containing
  // order: one lookup, then a contiguous scan.
  std::span<const Candidate> candidates(wire::ApiId api) const;

 private:
  std::unordered_map<wire::ApiId, std::vector<Candidate>> by_api_;
};

}  // namespace gretel::core
