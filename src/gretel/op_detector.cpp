#include "gretel/op_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "util/simd.h"

namespace gretel::core {

OperationDetector::OperationDetector(const FingerprintDb* db,
                                     const wire::ApiCatalog* catalog,
                                     const GretelConfig& config)
    : db_(db),
      catalog_(catalog),
      config_(config),
      matcher_(catalog, config.match_rpc),
      variants_(*db, matcher_) {
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

// Backward evidence for operational faults.  The faulty operation aborted
// at the fault, so all its evidence lies before it: consume the literal
// list right-to-left starting at the fault's request.  Each literal jumps
// straight to its last occurrence below the previous consumption point
// (simd::find_last_eq_u16) — the greedy rightmost-eligible walk, here
// resumed on the rows a growth exposed (see the cursor invariant in
// op_detector.h).
bool OperationDetector::Cursor::resume(std::span<const wire::ApiId> literals,
                                       const std::uint16_t* symbols,
                                       std::span<const double> request_ts,
                                       std::size_t lo, std::size_t end,
                                       std::uint64_t rows_mask,
                                       double fault_ts) {
  if (remaining == 0 || anchor_failed) return false;
  if ((simd::presence_bit_u16(literals[remaining - 1].value()) & rows_mask) ==
      0)
    return false;  // the next literal is not among the new rows
  const std::size_t before = remaining;
  while (remaining > 0) {
    const auto pos = simd::find_last_eq_u16(symbols + lo, end - lo,
                                            literals[remaining - 1].value());
    if (pos == simd::npos) break;
    if (remaining == literals.size() &&
        fault_ts - request_ts[lo + pos] > kAnchorProximitySeconds) {
      anchor_failed = true;  // not anchored at the fault
      break;
    }
    --remaining;
    end = lo + pos;
  }
  return remaining != before;
}

// The walk's evidence: the number of consumed literals, or 0 when
//  * the literal closest to the fault is farther than
//    kAnchorProximitySeconds from it (the failed operation was executing
//    right there, coincidental matches are scattered), or
//  * fewer than min(kMinLiteralSuffix, |literals|) literals are evidenced —
//    literals older than the window are excused (Fig. 4), a near-empty
//    match is not.
std::size_t OperationDetector::Cursor::evidence(
    std::size_t literal_count) const {
  if (anchor_failed) return 0;
  const std::size_t consumed = literal_count - remaining;
  if (consumed < std::min(kMinLiteralSuffix, literal_count)) return 0;
  return consumed;
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

  // Request-side API sequence of the window with timestamps, plus the
  // original event index so β (measured in messages) maps onto it.  Read
  // from the columnar view: the filter touches only the req/corr columns
  // and the kept rows copy out of dense arrays.
  apis_.clear();
  api_ts_.clear();
  event_index_.clear();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (!cols.req[i]) continue;
    if (fault_corr != 0 && cols.corr[i] != fault_corr) continue;
    apis_.push_back(wire::ApiId(cols.api[i]));
    api_ts_.push_back(cols.ts_s[i]);
    event_index_.push_back(i);
  }
  if (apis_.empty()) return result;
  const std::uint16_t* symbols =
      symbol_data(std::span<const wire::ApiId>(apis_));
  // First request row at or after window row `row`.
  const auto request_row = [this](std::size_t row) {
    return static_cast<std::size_t>(
        std::lower_bound(event_index_.begin(), event_index_.end(), row) -
        event_index_.begin());
  };

  // Operational faults look backward only — the aborted operation produced
  // nothing after the error — so their slices end at the fault's request
  // (the last request at or before the faulty message); performance faults
  // use both sides of the buffer.
  const std::size_t fault_hi = request_row(fault_row + 1);

  // The offending API may occur several times inside a fingerprint and the
  // detector cannot know which occurrence failed, so each occurrence's
  // truncated prefix is a separate literal variant to try (they are
  // prefixes of one another; only distinct lengths are kept).  All variants
  // were precomputed at load time (VariantCache); candidates here just
  // point at them — operational faults probe the truncated prefixes,
  // performance faults the whole fingerprint, which runs to completion and
  // is matched against the entire context buffer (§5.3.1).
  //
  // Presence-fingerprint prefilter: a candidate whose sequence shares no
  // symbol with the window's request-side symbols can never produce
  // evidence in any β slice — one AND of 64-bit masks discards it before
  // any scan.  The filter is conservative (collisions only admit extras),
  // so the matched set is unchanged.
  const std::uint64_t window_mask =
      simd::presence_mask_u16(symbols, apis_.size());
  candidates_.clear();
  cursors_.clear();
  for (const auto& cv : candidate_variants) {
    if ((db_->sequence_mask(cv.index) & window_mask) == 0) continue;
    Candidate c;
    c.index = cv.index;
    c.variants = truncate ? &cv.truncated : &cv.full;
    c.first_cursor = cursors_.size();
    if (truncate) {
      for (const auto& literals : c.variants->literals)
        cursors_.push_back({literals.size(), false});
    }
    candidates_.push_back(c);
  }
  // Even with every candidate gated out, the β loop still runs to its
  // usual stopping point so beta_final/theta report as usual.

  const std::size_t alpha = config_.alpha();
  std::size_t beta = config_.beta0();
  const std::size_t delta = config_.delta();

  // The slice [lo, hi) in request coordinates starts empty at the fault's
  // request and only grows: each growth exposes [new_lo, lo) on the left
  // and, matching forward, [hi, new_hi) on the right.
  std::size_t lo = fault_hi;
  std::size_t hi = fault_hi;
  // Presence mask of [lo, hi).
  std::uint64_t snap_mask = 0;
  const double fault_ts = cols.ts_s[fault_row];

  prev_matched_.clear();
  std::size_t best = 0;
  std::size_t prev_best = 0;
  int stable_iterations = 0;

  while (true) {
    const std::size_t lo_ev = fault_index > beta ? fault_index - beta : 0;
    const std::size_t hi_ev =
        truncate ? std::min(fault_index + 1, cols.size())
                 : std::min(fault_index + beta + 1, cols.size());
    const std::size_t new_lo = request_row(lo_ev);
    const std::size_t new_hi = request_row(hi_ev);
    const std::uint64_t left_mask =
        simd::presence_mask_u16(symbols + new_lo, lo - new_lo);

    // Evidence per candidate; the matched set keeps those whose evidence is
    // within kEvidenceRatio of the deepest candidate's, plus every
    // candidate with a *complete* variant — the entire truncated prefix in
    // the window is conclusive no matter how short it is (an early-step
    // fault has little history by definition).  Evidence only grows with
    // the slice, so `best` is a running maximum.
    if (truncate) {
      for (auto& c : candidates_) {
        // No symbol of any variant among the new rows ⟹ no walk advances;
        // skip the candidate with one AND.
        if ((c.variants->any_mask & left_mask) == 0) continue;
        for (std::size_t vi = 0; vi < c.variants->literals.size(); ++vi) {
          const auto& literals = c.variants->literals[vi];
          auto& cursor = cursors_[c.first_cursor + vi];
          if (!cursor.resume(literals, symbols, api_ts_, new_lo, lo,
                             left_mask, fault_ts))
            continue;
          const auto consumed = cursor.evidence(literals.size());
          c.evidence = std::max(c.evidence, consumed);
          best = std::max(best, consumed);
          // Completeness is only conclusive with enough literals behind it;
          // trivially-short prefixes must clear the depth cutoff instead.
          if (consumed >= kMinLiteralSuffix && consumed == literals.size())
            c.complete = true;
        }
      }
    } else {
      // Performance faults: forward match over the slice.
      snap_mask |=
          left_mask | simd::presence_mask_u16(symbols + hi, new_hi - hi);
      const std::span<const wire::ApiId> snapshot(apis_.data() + new_lo,
                                                  new_hi - new_lo);
      for (auto& c : candidates_) {
        if (c.complete) continue;
        for (std::size_t vi = 0; vi < c.variants->literals.size(); ++vi) {
          // A forward match needs *every* literal present: a variant with a
          // presence bit outside the slice's mask cannot match.
          if ((c.variants->masks[vi] & ~snap_mask) != 0) continue;
          if (matcher_.matches(c.variants->literals[vi], snapshot)) {
            c.complete = true;
            break;
          }
        }
      }
    }
    lo = new_lo;
    hi = new_hi;
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
    const bool window_covered =
        (lo_ev == 0 || fault_index - lo_ev >= alpha / 2) &&
        (truncate || hi_ev == cols.size() ||
         hi_ev - fault_index > alpha / 2);
    if (stable_iterations >= kStableGrowthsStop || window_covered) {
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
