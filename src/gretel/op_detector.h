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
//     candidates' state-change literals against the snapshot, and stops
//     once the matched set and the deepest evidence have held still for
//     kStableGrowthsStop growths (further context could only admit
//     coincidental matches and drop precision θ = (N−n)/(N−1)) or once the
//     buffer covers the window.
//
// Every growth resumes the previous one's work instead of restarting it.
// Operational faults walk each variant's literals right to left from the
// fault's request, greedily taking each literal's rightmost occurrence below
// the previous one.  The slice only grows to the left and its right end
// stays at that request, so the walk over a larger slice consumes the same
// positions first.  Each variant keeps a cursor: the literals still to
// consume and whether its anchor failed.  Invariant after the growth to the
// slice [lo, hi): the cursor has consumed exactly the literals a
// from-scratch walk over [lo, hi) would, and its next literal does not
// occur in [lo, p), p being its last consumed position (or hi).  A walk
// that stops has therefore searched down to lo, so the next growth to
// lo' < lo resumes it on the newly exposed rows [lo', lo) alone — skipped
// with one AND when the next literal's presence bit is absent from them.
// The anchor (the first literal found) is the rightmost occurrence below
// the fault in every slice, so a failed anchor check never recovers.
// Performance faults match forward over slices that grow on both sides; a
// subsequence match persists in every larger slice, so only unmatched
// candidates are re-tested.
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

#include <cstdint>
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
  // The stop rule's depth signal at β_final: the deepest backward evidence
  // (consumed literals) of any candidate, or the matched count when
  // matching forward.
  std::size_t best_evidence = 0;
};

class OperationDetector {
 public:
  OperationDetector(const FingerprintDb* db, const wire::ApiCatalog* catalog,
                    const GretelConfig& config);

  // `cols` is the columnar view of the frozen snapshot; `fault_index`
  // locates the faulty message inside it; `truncate` selects the
  // operational-fault behaviour.  Not const: the call works in scratch
  // owned by the detector, so steady-state detection allocates only the
  // result.
  DetectionResult detect(const WindowColumns& cols, std::size_t fault_index,
                         wire::ApiId offending, bool truncate);

  // Convenience overload building the columnar view of an event sequence
  // on the fly (tests and one-shot callers; the analyzer hot path freezes
  // into a scratch instance).
  DetectionResult detect(std::span<const wire::Event> window,
                         std::size_t fault_index, wire::ApiId offending,
                         bool truncate) {
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

  // Where one variant's backward walk stopped (see the header comment).
  struct Cursor {
    std::size_t remaining = 0;  // literals still to consume
    bool anchor_failed = false;

    // Walks on over the newly exposed request rows [lo, end), whose
    // presence mask is `rows_mask`; returns whether a literal was consumed.
    bool resume(std::span<const wire::ApiId> literals,
                const std::uint16_t* symbols,
                std::span<const double> request_ts, std::size_t lo,
                std::size_t end, std::uint64_t rows_mask, double fault_ts);
    // Consumed literals, or 0 when the walk is unanchored or too shallow.
    std::size_t evidence(std::size_t literal_count) const;
  };
  struct Candidate {
    FingerprintDb::Index index;
    const VariantCache::VariantSet* variants = nullptr;
    std::size_t first_cursor = 0;  // cursors_[first_cursor + vi]
    std::size_t evidence = 0;      // deepest variant's evidence
    // A variant consumed its whole prefix (backward walk) or matched
    // (forward match): conclusive, and it stays so as the slice grows.
    bool complete = false;
  };

  // Per-call scratch, bounded by the window and the candidate count and
  // reused across calls, so steady-state detection allocates nothing here.
  std::vector<wire::ApiId> apis_;          // request-side symbols
  std::vector<double> api_ts_;             // their timestamps
  std::vector<std::size_t> event_index_;   // their rows in the window
  std::vector<Candidate> candidates_;
  std::vector<Cursor> cursors_;
  std::vector<FingerprintDb::Index> matched_;
  std::vector<FingerprintDb::Index> prev_matched_;
};

}  // namespace gretel::core
