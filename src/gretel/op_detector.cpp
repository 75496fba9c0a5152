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
      matcher_(catalog, {config.match_rpc, config.backend}),
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

// Backward evidence for operational faults.  The faulty operation aborted
// at the fault, so all its evidence lies before it: consume the literal
// list right-to-left starting at the fault position.  Each literal jumps
// straight to its last occurrence below the previous consumption point
// (simd::find_last_eq_u16) — equivalent to the one-symbol-per-iteration
// backward walk, which greedily consumed each literal at its rightmost
// eligible position.  Returns the number of consumed literals, or 0 when
//  * the literal closest to the fault is farther than `proximity_s` seconds
//    from it (the failed operation was executing right there, coincidental
//    matches are scattered), or
//  * fewer than min(min_suffix, |literals|) literals are evidenced —
//    literals older than the window are excused (Fig. 4), a near-empty
//    match is not.
std::size_t backward_evidence(std::span<const wire::ApiId> literals,
                              const std::uint16_t* symbols, std::size_t n,
                              std::span<const double> snapshot_ts,
                              std::size_t fault_pos, double fault_ts,
                              std::size_t min_suffix, double proximity_s) {
  if (literals.empty() || n == 0) return 0;
  std::size_t i = literals.size();
  std::size_t end = std::min(fault_pos, n - 1) + 1;  // exclusive bound
  while (i > 0 && end > 0) {
    const auto pos =
        simd::find_last_eq_u16(symbols, end, literals[i - 1].value());
    if (pos == simd::npos) break;
    if (i == literals.size() && fault_ts - snapshot_ts[pos] > proximity_s) {
      return 0;  // not anchored at the fault
    }
    --i;
    end = pos;
  }
  const std::size_t consumed = literals.size() - i;
  if (consumed < std::min(min_suffix, literals.size())) return 0;
  return consumed;
}

}  // namespace

DetectionResult OperationDetector::detect(const WindowColumns& cols,
                                          std::size_t fault_index,
                                          wire::ApiId offending,
                                          bool truncate) const {
  DetectionResult result;

  // Candidate fingerprints containing the offending API (inverted index).
  const auto& candidate_idx = db_->containing(offending);
  result.candidates = candidate_idx.size();
  if (candidate_idx.empty()) return result;

  // When the deployment emits correlation ids and the faulty message
  // carries one, the snapshot reduces to the packets of that operation
  // alone — "reducing the number of packets against which a fingerprint is
  // matched" (§5.3.1).
  const std::uint32_t fault_corr =
      config_.use_correlation_ids
          ? cols.corr[std::min(fault_index, cols.size() - 1)]
          : 0;

  // Request-side API sequence of the window with timestamps, plus the
  // original event index so β (measured in messages) maps onto it.  Read
  // from the columnar view: the filter touches only the req/corr columns
  // and the kept rows copy out of dense arrays.
  std::vector<wire::ApiId> apis;
  std::vector<double> api_ts;
  std::vector<std::size_t> event_index;
  apis.reserve(cols.size() / 2);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (!cols.req[i]) continue;
    if (fault_corr != 0 && cols.corr[i] != fault_corr) continue;
    apis.push_back(wire::ApiId(cols.api[i]));
    api_ts.push_back(cols.ts_s[i]);
    event_index.push_back(i);
  }
  if (apis.empty()) return result;
  const std::uint16_t* symbols =
      symbol_data(std::span<const wire::ApiId>(apis));

  // The offending API may occur several times inside a fingerprint and the
  // detector cannot know which occurrence failed, so each occurrence's
  // truncated prefix is a separate literal variant to try (they are
  // prefixes of one another; only distinct lengths are kept).  All variants
  // were precomputed at load time (VariantCache); candidates here are just
  // borrowed spans — operational faults probe the truncated prefixes,
  // performance faults the whole fingerprint, which runs to completion and
  // is matched against the entire context buffer (§5.3.1).
  //
  // Presence-fingerprint prefilter: a candidate whose sequence shares no
  // symbol with the window's request-side symbols can never produce
  // evidence in any β slice — one AND of 64-bit masks discards it before
  // any scan.  The filter is conservative (collisions only admit extras),
  // so the matched set is unchanged.  The regex ablation backend skips the
  // mask gates entirely so its measured cost stays the backend's own.
  struct Candidate {
    FingerprintDb::Index index;
    std::span<const std::vector<wire::ApiId>> variants;
    std::span<const std::uint64_t> masks;  // parallel to variants
    std::uint64_t any_mask = 0;            // OR of masks
  };
  const bool mask_gate = config_.backend != MatchBackend::StdRegex;
  const std::uint64_t window_mask =
      simd::presence_mask_u16(symbols, apis.size());
  std::vector<Candidate> candidates;
  candidates.reserve(candidate_idx.size());
  for (auto idx : candidate_idx) {
    if (mask_gate && (db_->sequence_mask(idx) & window_mask) == 0) continue;
    Candidate c;
    c.index = idx;
    c.variants = truncate ? variants_.truncated(idx, offending)
                          : variants_.full(idx, offending);
    c.masks = truncate ? variants_.truncated_masks(idx, offending)
                       : variants_.full_masks(idx, offending);
    for (auto m : c.masks) c.any_mask |= m;
    candidates.push_back(c);
  }
  // Even with every candidate gated out, the β loop still runs to its
  // usual stopping point so beta_final/theta report exactly as before.

  // The fault's position in request coordinates: the last request at or
  // before the faulty message (typically the offending request itself).
  const auto fault_req_it = std::upper_bound(event_index.begin(),
                                             event_index.end(), fault_index);
  const std::size_t fault_req_pos =
      fault_req_it == event_index.begin()
          ? 0
          : static_cast<std::size_t>(fault_req_it - event_index.begin()) - 1;
  const double fault_ts = cols.ts_s[std::min(fault_index, cols.size() - 1)];

  const std::size_t alpha = config_.alpha();
  std::size_t beta = config_.beta0();
  const std::size_t delta = config_.delta();

  std::vector<FingerprintDb::Index> prev_matched;
  std::size_t prev_best = 0;
  int stable_iterations = 0;

  while (true) {
    // Slice of the window within β messages around the fault.  Operational
    // faults look backward only — the aborted operation produced nothing
    // after the error; performance faults use both sides of the buffer.
    const std::size_t lo_ev = fault_index > beta ? fault_index - beta : 0;
    const std::size_t hi_ev =
        truncate ? std::min(fault_index + 1, cols.size())
                 : std::min(fault_index + beta + 1, cols.size());
    const auto lo_it = std::lower_bound(event_index.begin(),
                                        event_index.end(), lo_ev);
    const auto hi_it = std::lower_bound(event_index.begin(),
                                        event_index.end(), hi_ev);
    const auto lo = static_cast<std::size_t>(lo_it - event_index.begin());
    const auto hi = static_cast<std::size_t>(hi_it - event_index.begin());
    const std::span<const wire::ApiId> snapshot(apis.data() + lo, hi - lo);
    const std::span<const double> snapshot_ts(api_ts.data() + lo, hi - lo);
    const std::size_t fault_in_slice =
        fault_req_pos > lo ? fault_req_pos - lo : 0;
    // Symbol-presence fingerprint of this slice, for the per-candidate and
    // per-variant mask gates below.
    const std::uint64_t snap_mask =
        mask_gate ? simd::presence_mask_u16(symbols + lo, hi - lo) : ~0ull;

    // Evidence per candidate; the matched set keeps those whose evidence is
    // within evidence_ratio of the deepest candidate's, plus every
    // candidate with a *complete* variant — the entire truncated prefix in
    // the window is conclusive no matter how short it is (an early-step
    // fault has little history by definition).
    std::vector<FingerprintDb::Index> matched;
    std::size_t best = 0;
    if (truncate && config_.backend != MatchBackend::StdRegex) {
      std::vector<std::size_t> evidence(candidates.size(), 0);
      std::vector<char> complete(candidates.size(), 0);
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        // No symbol shared with the slice ⟹ every variant consumes zero
        // literals; skip the candidate with one AND.
        if ((candidates[ci].any_mask & snap_mask) == 0) continue;
        for (std::size_t vi = 0; vi < candidates[ci].variants.size(); ++vi) {
          if ((candidates[ci].masks[vi] & snap_mask) == 0) continue;
          const auto& literals = candidates[ci].variants[vi];
          const auto consumed = backward_evidence(
              literals, symbols + lo, hi - lo, snapshot_ts, fault_in_slice,
              fault_ts, config_.min_literal_suffix,
              config_.anchor_proximity_seconds);
          evidence[ci] = std::max(evidence[ci], consumed);
          // Completeness is only conclusive with enough literals behind it;
          // trivially-short prefixes must clear the depth cutoff instead.
          if (consumed >= config_.min_literal_suffix &&
              consumed == literals.size()) {
            complete[ci] = 1;
          }
        }
        best = std::max(best, evidence[ci]);
      }
      const auto cutoff = static_cast<std::size_t>(
          std::ceil(config_.evidence_ratio * static_cast<double>(best)));
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        if (complete[ci] || (evidence[ci] > 0 && evidence[ci] >= cutoff))
          matched.push_back(candidates[ci].index);
      }
    } else {
      // Performance faults and the regex ablation backend: forward match
      // over the slice.
      for (const auto& c : candidates) {
        for (std::size_t vi = 0; vi < c.variants.size(); ++vi) {
          // A forward match needs *every* literal present: a variant with a
          // presence bit outside the slice's mask cannot match.
          if (mask_gate && (c.masks[vi] & ~snap_mask) != 0) continue;
          if (matcher_.matches(c.variants[vi], snapshot)) {
            matched.push_back(c.index);
            break;
          }
        }
      }
      best = matched.size();
    }

    // Stop growing once the context stops adding information: the matched
    // set and the deepest evidence unchanged across two growths.  Growing
    // further can only admit coincidental matches and drop precision —
    // this is where §5.3.1's "stop as soon as θ drops" lands under
    // evidence-ranked matching (θ would only fall from here).
    if (!matched.empty() && matched == prev_matched && best == prev_best) {
      if (++stable_iterations >= config_.stable_growths_stop) {
        result.matched = std::move(matched);
        result.beta_final = beta;
        result.theta = theta(result.matched.size());
        return result;
      }
    } else {
      stable_iterations = 0;
    }

    const bool window_covered =
        (lo_ev == 0 || fault_index - lo_ev >= alpha / 2) &&
        (truncate || hi_ev == cols.size() ||
         hi_ev - fault_index > alpha / 2);
    if (window_covered) {
      result.matched = std::move(matched);
      result.beta_final = beta;
      result.theta = theta(result.matched.size());
      return result;
    }

    prev_matched = std::move(matched);
    prev_best = best;
    beta += delta;
  }
}

}  // namespace gretel::core
