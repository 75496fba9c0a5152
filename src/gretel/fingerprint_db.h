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

  // FPmax: the largest fingerprint size across all operations (the α input,
  // §5.3.1 / §7 "Empirical determination of thresholds").
  std::size_t max_fingerprint_size() const { return max_size_; }

 private:
  std::vector<Fingerprint> fingerprints_;
  std::unordered_map<wire::ApiId, std::vector<Index>> by_api_;
  std::vector<Index> empty_;
  std::size_t max_size_ = 0;
};

// Precomputed candidate literal variants, built once from a loaded database.
//
// Algorithm 2 probes, for every candidate fingerprint, the required-literal
// lists of its prefixes truncated at each occurrence of the offending API,
// or of the whole fingerprint for a performance fault.  Those lists depend
// only on (fingerprint, offending api, matcher options), never on the
// snapshot, so VariantCache materializes them at load time, listed per
// offending api; detect() reads them in place and allocates nothing.
class VariantCache {
 public:
  // Builds the full cache: one entry per (fingerprint, distinct api in its
  // sequence).  `matcher` supplies required_literals.
  VariantCache(const FingerprintDb& db, const Matcher& matcher);

  // One candidate fingerprint's literal lists for one offending api.
  struct Candidate {
    FingerprintDb::Index index = 0;
    // Truncated-prefix variants for operational faults: one per distinct
    // prefix length at the api's occurrences, scanned last to first (so
    // deepest first), empty prefixes dropped, `{api}` when nothing
    // anchors; never empty.
    std::vector<std::vector<wire::ApiId>> truncated;
    // The full fingerprint's literals for performance faults (`{api}` when
    // the fingerprint has no required literals at all).
    std::vector<wire::ApiId> full;
  };

  // The candidates for offending api `api`, in FingerprintDb::containing
  // order: one lookup, then a contiguous scan.
  std::span<const Candidate> candidates(wire::ApiId api) const;

 private:
  std::unordered_map<wire::ApiId, std::vector<Candidate>> by_api_;
};

}  // namespace gretel::core
