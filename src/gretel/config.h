// Analyzer configuration (§5.3.1 and §7 "Empirical determination of
// thresholds").
//
//   α = 2 · max(FPmax, Prate · t)      sliding window size (messages)
//   β = c1 · α                          initial context buffer
//   δ = c2 · α                          context growth per iteration
//
// The paper's deployment: FPmax = 384, Prate ≈ 150 pps at 400 concurrent
// operations, t = 1 s, c1 = 0.1, c2 = 0.04 → α = 768, β₀ = 80 (they round
// c1·α up), δ = 30.
//
// GretelConfig holds only what the analyzer reads.  Every knob is
// documented as: paper symbol (if any) · default · effect.  The same table,
// with tuning guidance, lives in docs/ARCHITECTURE.md.  Streaming and
// durability knobs live in stream::StreamOptions, probe knobs in
// monitor::ProbeConfig, campaign knobs in campaign::CampaignPlan; values
// the code never varies are named constants next to their reader.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace gretel::core {

// t · 1.0 s · the paper's window time horizon: α must cover at least t
// seconds of traffic at Prate (§5.3.1).  The paper fixes it; it is not a
// knob.
inline constexpr double kWindowHorizonSeconds = 1.0;

struct GretelConfig {
  // FPmax · 384 · the longest fingerprint in the database, in messages.
  // One of the two lower bounds on the window: a snapshot must be able to
  // hold a whole operation, or truncated matching loses literals (Fig. 4).
  std::size_t fp_max = 384;

  // Prate · 150.0 · observed capture rate in packets per second.  The other
  // window bound: α must cover at least t seconds of traffic at this rate.
  double p_rate = 150.0;

  // c1 · 0.1 · initial context-buffer fraction: β₀ = c1·α messages around
  // the fault are matched first.  Larger values start Algorithm 2 with more
  // context (fewer growth iterations, more coincidental matches admitted
  // up front).
  double c1 = 0.1;

  // c2 · 0.04 · context growth fraction: the buffer grows by δ = c2·α
  // messages per iteration until the match set stabilizes or the window is
  // covered.  Smaller values converge more precisely but iterate more.
  double c2 = 0.04;

  // (§6 optimization) · false · when false, RPC symbols are pruned from the
  // match literals and REST state changes anchor the match; true keeps RPCs
  // as literals (the Fig. 7c "with RPC" variant — slower, rarely better).
  bool match_rpc = false;

  // (§5.3.1 enhancement) · true · exploit OpenStack correlation ids when
  // the deployment emits them: the snapshot is reduced to the packets
  // sharing the faulty message's correlation id before fingerprints are
  // matched.  No effect on captures without correlation ids.
  bool use_correlation_ids = true;

  // (threading) · fixed · the analyzer is serial: one thread runs detection,
  // Algorithm 2 and RCA.  Not knobs; kept only because perfbench's
  // serial-config guard (perfbench/src/e2e_main.cpp) still reads them.
  static constexpr std::size_t num_shards = 1;
  static constexpr std::size_t num_match_workers = 0;

  // (hot path) · fixed 64 · slab size, in KiB, of the capture-tap decode
  // arena.  Every decode batch parses into string_views over arena-backed
  // scratch and the arena resets (retaining its slabs) per batch, so after
  // warmup the decode path performs zero heap allocations.  One slab must
  // fit the parsed header array plus the normalized URI of a single
  // record.  A constant, not a knob; perfbench sizes its own tap from it.
  static constexpr std::size_t decode_arena_kb = 64;

  // (hot path) · fixed 128 · records per Analyzer::on_wire_batch call in
  // perfbench's batch driver (perfbench/src/e2e_main.cpp).  The analyzer
  // never reads it; a constant kept only because perfbench does.
  static constexpr std::size_t ingest_batch = 128;

  // (resilience) · 0.0 = off · seconds after which a request whose response
  // was never captured is reaped from the latency tracker.  Lossy taps
  // orphan requests; without a reaper the pending-request maps leak and a
  // response arriving after aeons would register a bogus latency sample.
  // Admission is decided at pairing time (response−request gap vs this
  // timeout), so results are independent of sweep timing; the periodic
  // sweep only reclaims memory.  0 keeps the exact pre-resilience behavior.
  double orphan_timeout_seconds = 0.0;

  // --- root-cause analysis (Algorithm 3, §5.4) ---

  // (§5.4) · 3.0 · metric context, in seconds, added around the fault
  // window on both sides before Is_Anomalous runs.
  double rca_window_pad_seconds = 3.0;

  // (§5.4) · 5.0 · Is_Anomalous threshold: a window's resource level is
  // anomalous when it deviates from the node's own baseline by more than
  // this many baseline sigmas.
  double rca_k_sigma = 5.0;

  // (monitoring) · 0.0 = off · metric freshness horizon in seconds.  When
  // set, a metric series whose newest sample lags the analysis window end
  // by more than this is treated as Stale evidence — "unknown", not
  // "normal" — and annotated on the report.  0 keeps the legacy reading
  // (a frozen series silently looks clean).
  double metric_staleness_s = 0.0;

  // (monitoring) · 0.0 = off · per-analysis probe deadline budget in
  // simulated milliseconds.  Once a root-cause analysis has spent this
  // much probe time (timeouts included), remaining targets are reported
  // Unknown instead of probed — a wedged monitoring agent can delay an
  // analysis by at most this budget, never stall it.  0 = unbounded.
  double probe_budget_ms = 0.0;

  // Sanity-checks the knob surface; returns one itemized, human-readable
  // error per nonsensical value (empty = valid).  Tool CLIs call this
  // after flag parsing and refuse to start on errors — a zero rate or a
  // NaN threshold otherwise surfaces as a silent div/0 or an empty window
  // far from the flag that caused it.  Streaming knobs are checked by
  // stream::StreamOptions::validate().
  std::vector<std::string> validate() const {
    std::vector<std::string> errors;
    const auto bad = [&errors](const std::string& msg) {
      errors.push_back(msg);
    };
    if (fp_max == 0) bad("fp_max must be > 0 (longest fingerprint bound)");
    if (!std::isfinite(p_rate) || p_rate <= 0.0)
      bad("p_rate must be a finite rate > 0 packets/s");
    if (!std::isfinite(c1) || c1 <= 0.0)
      bad("c1 (initial context fraction) must be > 0");
    if (!std::isfinite(c2) || c2 <= 0.0)
      bad("c2 (context growth fraction) must be > 0");
    if (!std::isfinite(orphan_timeout_seconds) ||
        orphan_timeout_seconds < 0.0)
      bad("orphan_timeout_seconds must be >= 0 (0 = off)");
    if (!std::isfinite(rca_window_pad_seconds) ||
        rca_window_pad_seconds < 0.0)
      bad("rca_window_pad_seconds must be >= 0");
    if (!std::isfinite(rca_k_sigma) || rca_k_sigma <= 0.0)
      bad("rca_k_sigma must be > 0");
    if (!std::isfinite(metric_staleness_s) || metric_staleness_s < 0.0)
      bad("metric_staleness_s must be >= 0 (0 = off)");
    if (!std::isfinite(probe_budget_ms) || probe_budget_ms < 0.0)
      bad("probe_budget_ms must be >= 0 (0 = unbounded)");
    return errors;
  }

  std::size_t alpha() const {
    const auto rate_window =
        static_cast<std::size_t>(p_rate * kWindowHorizonSeconds);
    return 2 * std::max(fp_max, rate_window);
  }
  std::size_t beta0() const {
    return std::max<std::size_t>(1,
                                 static_cast<std::size_t>(c1 * alpha()));
  }
  std::size_t delta() const {
    return std::max<std::size_t>(1,
                                 static_cast<std::size_t>(c2 * alpha()));
  }
};

}  // namespace gretel::core
