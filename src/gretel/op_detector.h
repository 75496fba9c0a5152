// Operation detection (Algorithm 2 + the context-buffer iteration of
// §5.3.1).
//
// Given the frozen sliding window and the offending API, the detector:
//  1. pulls the candidate fingerprints containing that API (inverted index),
//  2. truncates each candidate at the API's occurrences (operational faults
//     only); a performance fault's operation runs to completion, so its
//     candidates match the full fingerprint, and those that do not match
//     the last slice the growth can reach are dropped up front,
//  3. grows a context buffer β around the fault by δ per iteration, matching
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
// positions first.  The walks run as one backward sweep over the request
// rows instead of one scan per variant: each live variant keeps a cursor
// that waits in an intrusive list headed by its next literal (one head per
// catalog API), and each growth visits the newly exposed rows [lo', lo)
// once, right to left.  A row detaches the list of its symbol; each cursor
// on it fails its anchor check or consumes the row and relinks under its
// next literal.  Sweep invariant after the growth to the slice [lo, hi):
// every cursor has consumed exactly the literals a from-scratch greedy walk
// over [lo, hi) would, and a live cursor waits in the list of its next
// literal, which does not occur in [lo, p), p being its last consumed
// position (or hi).  A cursor relinked at row r joins a list read only at
// rows below r, so a run of equal literals never consumes one row twice.
// Rows whose symbol lies outside the catalog carry no literal and are
// skipped.  The anchor (the first literal found) is the rightmost
// occurrence below the fault in every slice, so a cursor whose anchor check
// fails leaves the lists for good.  Every list is empty again when detect()
// returns.  Performance faults match forward over slices that grow on both
// sides.  A subsequence match persists in every larger slice, so a
// candidate that fails the last slice the growth can reach (the first one
// covering the window) fails every step and is dropped before the first;
// the others are re-tested at each growth until they match.
//
// The snapshot arrives as its columnar (SoA) view (core::WindowColumns):
// the request filter is one branch-free compaction pass over the
// req/corr/api columns, and the sweep and the forward matcher read the
// compacted uint16 symbol column (the latter through the util/simd.h
// kernels) instead of striding through wire::Event records.  SIMD and
// scalar kernels are bit-identical, so detection output is invariant under
// the kernel family.
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
  // result's matched set (SteadyStateAllocs.DetectAllocatesOnlyTheMatchedSet).
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

  // One variant's backward walk (see the header comment): it waits in the
  // list of literals[remaining - 1] until the sweep reaches a row of it.
  struct Cursor {
    const wire::ApiId* literals = nullptr;
    std::uint32_t count = 0;      // literals in the variant
    std::uint32_t remaining = 0;  // literals still to consume
    std::uint32_t candidate = 0;  // candidates_[candidate]
    std::uint32_t next = 0;       // next cursor in the same list, or kNone
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Candidate {
    FingerprintDb::Index index;
    std::span<const wire::ApiId> full;  // literals matched forward
    std::size_t evidence = 0;  // deepest variant's evidence
    // A variant consumed its whole prefix (backward walk) or matched
    // (forward match): conclusive, and it stays so as the slice grows.
    bool complete = false;
  };

  // Links cursor `ci` into the list of its next literal.
  void wait(std::uint32_t ci);
  // Sweeps the request rows [lo, end) right to left (see the header
  // comment); `best` tracks the deepest evidence.
  void sweep(std::size_t lo, std::size_t end, const WindowColumns& cols,
             double fault_ts, std::size_t& best);

  // Per-call scratch, bounded by the window and the candidate count and
  // reused across calls, so steady-state detection allocates nothing here.
  // The request columns keep the largest window's size; a call uses the
  // leading rows its filter kept.
  std::vector<wire::ApiId> apis_;           // request-side symbols
  std::vector<std::uint32_t> event_index_;  // their rows in the window
  std::vector<Candidate> candidates_;
  std::vector<Cursor> cursors_;
  // Per catalog API: the first cursor waiting on it, or kNone.
  std::vector<std::uint32_t> waiting_;
  std::vector<FingerprintDb::Index> matched_;
  std::vector<FingerprintDb::Index> prev_matched_;
};

}  // namespace gretel::core
