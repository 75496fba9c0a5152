// Operation detection (Algorithm 2 + the context-buffer iteration of
// §5.3.1).
//
// Given the frozen sliding window and the offending API, the detector:
//  1. pulls the candidate fingerprints containing that API (inverted index),
//  2. prunes candidates that share no symbol with the window — one AND of
//     64-bit presence fingerprints (FingerprintDb::sequence_mask vs the
//     window's mask) rejects them before any O(n) scan,
//  3. truncates each survivor at the API's last occurrence (operational
//     faults only — performance faults match the full fingerprint since the
//     operation runs to completion),
//  4. grows a context buffer β around the fault by δ per iteration, matching
//     candidates' state-change literals against the snapshot, and stops as
//     soon as precision θ = (N−n)/(N−1) would drop (with subsequence
//     matching, n grows monotonically in β, so the first increase after a
//     non-empty match is the stopping point).
//
// The snapshot arrives as its columnar (SoA) view (core::WindowColumns):
// the request filter and the per-candidate symbol walks read contiguous
// uint16/uint8/double columns through the util/simd.h kernels instead of
// striding through wire::Event records.  SIMD and scalar kernels are
// bit-identical, so detection output is invariant under the kernel family.
// Candidates are scored serially on the calling thread: Algorithm 2 runs
// about once per fault, and a measured fork-join fan-out never paid for
// its handshake (docs/PERFORMANCE.md).
#pragma once

#include <span>
#include <vector>

#include "gretel/config.h"
#include "gretel/fingerprint_db.h"
#include "gretel/matcher.h"
#include "gretel/report.h"
#include "gretel/window.h"
#include "wire/message.h"

namespace gretel::core {

struct DetectionResult {
  std::vector<FingerprintDb::Index> matched;
  double theta = 0.0;
  std::size_t beta_final = 0;
  std::size_t candidates = 0;
};

class OperationDetector {
 public:
  OperationDetector(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                    const GretelConfig& config);

  // `cols` is the columnar view of the frozen snapshot; `fault_index`
  // locates the faulty message inside it; `truncate` selects the
  // operational-fault behaviour.
  DetectionResult detect(const WindowColumns& cols, std::size_t fault_index,
                         wire::ApiId offending, bool truncate) const;

  // Convenience overload building the columnar view of an event sequence
  // on the fly (tests and one-shot callers; the analyzer hot path freezes
  // into a scratch instance).
  DetectionResult detect(std::span<const wire::Event> window,
                         std::size_t fault_index, wire::ApiId offending,
                         bool truncate) const {
    WindowColumns cols;
    cols.build(window);
    return detect(cols, fault_index, offending, truncate);
  }

  // θ for a given matched-count n against this database's N.
  double theta(std::size_t n) const;

  const Matcher& matcher() const { return matcher_; }
  const VariantCache& variants() const { return variants_; }

 private:
  const FingerprintDb* db_;
  const wire::ApiCatalog* catalog_;
  GretelConfig config_;
  Matcher matcher_;
  // Candidate literal variants precomputed at construction (load time);
  // detect() borrows spans from it and rebuilds nothing per snapshot.
  VariantCache variants_;
};

}  // namespace gretel::core
