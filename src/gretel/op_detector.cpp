#include "gretel/op_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace gretel::core {

OperationDetector::OperationDetector(const FingerprintDb* db,
                                     const wire::ApiCatalog* catalog,
                                     const GretelConfig& config)
    : db_(db),
      catalog_(catalog),
      config_(config),
      matcher_(catalog, config.match_rpc),
      variants_(*db, matcher_),
      waiting_(catalog->size(), kNone) {
  assert(db_ && catalog_);
}

double OperationDetector::theta(std::size_t n) const {
  const auto N = db_->size();
  if (N <= 1) return n <= 1 ? 1.0 : 0.0;
  if (n == 0) return 0.0;  // nothing matched: no information
  return static_cast<double>(N - n) / static_cast<double>(N - 1);
}

namespace {

// Fixed tuning of the evidence-ranked Algorithm 2 below.  The paper gives
// no values for these; they are implementation constants, not knobs.

// (Fig. 4 relaxation) Minimum trailing literals that must be evidenced
// before the fault when the snapshot cannot reach back to the operation's
// start; candidates with fewer literals must show them all.
constexpr std::size_t kMinLiteralSuffix = 4;

// The faulty operation is executing *at* the fault, so its most recent
// state-change literal must have occurred within this many seconds before
// the fault; coincidental matches scattered across the window fail this
// anchoring requirement.
constexpr double kAnchorProximitySeconds = 2.0;

// Operational matching keeps the candidates whose anchored backward
// evidence (consumed literals) is within this fraction of the best
// candidate's: the faulty operation accumulates evidence as the context
// buffer grows while coincidental matches stay shallow.
constexpr double kEvidenceRatio = 0.5;

// (θ stopping rule) Growth of the context buffer stops early once the
// matched set and the deepest evidence have been stable for this many
// consecutive growths (further context could only admit coincidental
// matches and drop θ).
constexpr int kStableGrowthsStop = 5;

}  // namespace

void OperationDetector::wait(std::uint32_t ci) {
  Cursor& cursor = cursors_[ci];
  const auto literal = cursor.literals[cursor.remaining - 1].value();
  assert(literal < waiting_.size());
  cursor.next = waiting_[literal];
  waiting_[literal] = ci;
}

// Backward evidence for operational faults.  The faulty operation aborted
// at the fault, so all its evidence lies before it: each variant consumes
// its literal list right to left starting at the fault's request, each
// literal at its last occurrence below the previous consumption point —
// the greedy rightmost-eligible walk, run for all variants at once by
// sweeping the rows right to left (see the sweep invariant in
// op_detector.h).
//
// A variant's evidence is its number of consumed literals, or 0 when
//  * the literal closest to the fault is farther than
//    kAnchorProximitySeconds from it (the failed operation was executing
//    right there, coincidental matches are scattered), or
//  * fewer than min(kMinLiteralSuffix, |literals|) literals are evidenced —
//    literals older than the window are excused (Fig. 4), a near-empty
//    match is not.
void OperationDetector::sweep(std::size_t lo, std::size_t end,
                              const WindowColumns& cols, double fault_ts,
                              std::size_t& best) {
  const std::uint16_t* symbols = symbol_data(apis_);
  for (std::size_t row = end; row-- > lo;) {
    const std::uint16_t symbol = symbols[row];
    if (symbol >= waiting_.size()) continue;  // outside the catalog
    std::uint32_t ci = waiting_[symbol];
    if (ci == kNone) continue;
    waiting_[symbol] = kNone;
    do {
      Cursor& cursor = cursors_[ci];
      const std::uint32_t next = cursor.next;
      if (cursor.remaining == cursor.count &&
          fault_ts - cols.ts_s[event_index_[row]] > kAnchorProximitySeconds) {
        ci = next;
        continue;  // not anchored at the fault: the walk never resumes
      }
      const std::size_t consumed = cursor.count - --cursor.remaining;
      if (consumed >= std::min<std::size_t>(kMinLiteralSuffix, cursor.count)) {
        auto& c = candidates_[cursor.candidate];
        c.evidence = std::max(c.evidence, consumed);
        best = std::max(best, consumed);
        // Completeness is only conclusive with enough literals behind it;
        // trivially-short prefixes must clear the depth cutoff instead.
        if (consumed >= kMinLiteralSuffix && cursor.remaining == 0)
          c.complete = true;
      }
      if (cursor.remaining > 0) wait(ci);
      ci = next;
    } while (ci != kNone);
  }
}

DetectionResult OperationDetector::detect(const WindowColumns& cols,
                                          std::size_t fault_index,
                                          wire::ApiId offending,
                                          bool truncate) {
  DetectionResult result;

  // Candidate fingerprints containing the offending API (inverted index).
  // An empty window has no faulty message to read and nothing to match.
  const auto candidate_variants = variants_.candidates(offending);
  result.candidates = candidate_variants.size();
  if (candidate_variants.empty() || cols.size() == 0) return result;
  const std::size_t fault_row = std::min(fault_index, cols.size() - 1);

  // When the deployment emits correlation ids and the faulty message
  // carries one, the snapshot reduces to the packets of that operation
  // alone — "reducing the number of packets against which a fingerprint is
  // matched" (§5.3.1).
  const std::uint32_t fault_corr =
      config_.use_correlation_ids ? cols.corr[fault_row] : 0;

  // Request-side API sequence of the window, plus each request's row in
  // the window so β (measured in messages) maps onto it.  One branch-free
  // compaction pass over the req/corr/api columns: every row is written at
  // the write position, which advances past kept rows only.  The scratch
  // columns keep the largest window's size, so the pass never reallocates.
  if (apis_.size() < cols.size()) {
    apis_.resize(cols.size());
    event_index_.resize(cols.size());
  }
  std::size_t requests = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    apis_[requests] = wire::ApiId(cols.api[i]);
    event_index_[requests] = static_cast<std::uint32_t>(i);
    requests +=
        cols.req[i] & ((fault_corr == 0) | (cols.corr[i] == fault_corr));
  }
  if (requests == 0) return result;
  // First request row at or after window row `row`.
  const auto request_row = [this, requests](std::size_t row) {
    const auto first = event_index_.begin();
    return static_cast<std::size_t>(
        std::lower_bound(first, first + requests, row) - first);
  };

  // Operational faults look backward only — the aborted operation produced
  // nothing after the error — so their slices end at the fault's request
  // (the last request at or before the faulty message); performance faults
  // use both sides of the buffer.
  const std::size_t fault_hi = request_row(fault_row + 1);

  const std::size_t alpha = config_.alpha();
  const std::size_t delta = config_.delta();
  // The slice of growth β in window rows, [lo_ev, hi_ev), and whether it
  // covers the window, which ends the growth.
  struct Slice {
    std::size_t lo_ev;
    std::size_t hi_ev;
    bool covers_window;
  };
  const auto slice_at = [&](std::size_t beta) {
    Slice s;
    s.lo_ev = fault_index > beta ? fault_index - beta : 0;
    s.hi_ev = truncate ? std::min(fault_index + 1, cols.size())
                       : std::min(fault_index + beta + 1, cols.size());
    s.covers_window =
        (s.lo_ev == 0 || fault_index - s.lo_ev >= alpha / 2) &&
        (truncate || s.hi_ev == cols.size() ||
         s.hi_ev - fault_index > alpha / 2);
    return s;
  };

  // The offending API may occur several times inside a fingerprint and the
  // detector cannot know which occurrence failed, so each occurrence's
  // truncated prefix is a separate literal variant to try (they are
  // prefixes of one another; only distinct lengths are kept).  All variants
  // were precomputed at load time (VariantCache); candidates here just
  // point at them — operational faults probe the truncated prefixes,
  // performance faults the whole fingerprint, which runs to completion and
  // is matched against the entire context buffer (§5.3.1).
  //
  // Performance faults' slices only grow, so a candidate that does not
  // match the last slice the growth can reach — the first from β0 in steps
  // of δ that covers the window — matches at no step and is dropped here.
  std::span<const wire::ApiId> reach;
  if (!truncate) {
    std::size_t beta = config_.beta0();
    Slice last = slice_at(beta);
    while (!last.covers_window) last = slice_at(beta += delta);
    const std::size_t first = request_row(last.lo_ev);
    reach = {apis_.data() + first, request_row(last.hi_ev) - first};
  }
  // Each truncated variant's cursor starts waiting on its last literal.
  candidates_.clear();
  cursors_.clear();
  for (const auto& cv : candidate_variants) {
    if (!truncate && !matcher_.matches(cv.full, reach)) continue;
    Candidate c;
    c.index = cv.index;
    c.full = cv.full;
    if (truncate) {
      for (const auto& literals : cv.truncated) {
        const auto count = static_cast<std::uint32_t>(literals.size());
        cursors_.push_back({literals.data(), count, count,
                            static_cast<std::uint32_t>(candidates_.size()),
                            kNone});
        wait(static_cast<std::uint32_t>(cursors_.size() - 1));
      }
    }
    candidates_.push_back(c);
  }
  // Even with no candidate left, the β loop still runs to its usual
  // stopping point so beta_final/theta report as usual.

  // The backward slice [lo, fault_hi) in request coordinates starts empty
  // at the fault's request and only grows: each growth exposes [new_lo, lo).
  std::size_t beta = config_.beta0();
  std::size_t lo = fault_hi;
  const double fault_ts = cols.ts_s[fault_row];

  prev_matched_.clear();
  std::size_t best = 0;
  std::size_t prev_best = 0;
  int stable_iterations = 0;

  while (true) {
    const Slice slice = slice_at(beta);
    const std::size_t new_lo = request_row(slice.lo_ev);

    // Evidence per candidate; the matched set keeps those whose evidence is
    // within kEvidenceRatio of the deepest candidate's, plus every
    // candidate with a *complete* variant: a truncated prefix consumed
    // whole with at least kMinLiteralSuffix literals behind it (sweep()
    // marks nothing shorter complete; short prefixes must clear the
    // cutoff), or a forward match.  Evidence only grows with the slice, so
    // `best` is a running maximum.
    if (truncate) {
      sweep(new_lo, lo, cols, fault_ts, best);
    } else {
      // Performance faults: forward match over the slice.
      const std::span<const wire::ApiId> snapshot(
          apis_.data() + new_lo, request_row(slice.hi_ev) - new_lo);
      for (auto& c : candidates_) {
        if (!c.complete && matcher_.matches(c.full, snapshot))
          c.complete = true;
      }
    }
    lo = new_lo;
    const auto cutoff = static_cast<std::size_t>(
        std::ceil(kEvidenceRatio * static_cast<double>(best)));
    matched_.clear();
    for (const auto& c : candidates_) {
      if (c.complete || (c.evidence > 0 && c.evidence >= cutoff))
        matched_.push_back(c.index);
    }
    if (!truncate) best = matched_.size();

    // Stop growing once the context stops adding information: the matched
    // set and the deepest evidence unchanged across kStableGrowthsStop
    // growths.  Growing further can only admit coincidental matches and
    // drop precision — this is where §5.3.1's "stop as soon as θ drops"
    // lands under evidence-ranked matching (θ would only fall from here).
    if (!matched_.empty() && matched_ == prev_matched_ && best == prev_best) {
      ++stable_iterations;
    } else {
      stable_iterations = 0;
    }
    if (stable_iterations >= kStableGrowthsStop || slice.covers_window) {
      // Empty every list for the next call.
      for (const auto& cursor : cursors_) {
        if (cursor.remaining > 0)
          waiting_[cursor.literals[cursor.remaining - 1].value()] = kNone;
      }
      result.matched.assign(matched_.begin(), matched_.end());
      result.beta_final = beta;
      result.theta = theta(result.matched.size());
      result.best_evidence = best;
      return result;
    }

    std::swap(matched_, prev_matched_);
    prev_best = best;
    beta += delta;
  }
}

}  // namespace gretel::core
