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
// Every knob is documented as: paper symbol (if any) · default · effect.
// The same table, with tuning guidance, lives in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gretel/matcher.h"

namespace gretel::core {

// Streaming admission policy when the bounded source ring is full and the
// producer keeps pushing (i.e. it ignores the credit scheme).  Either way
// every shed record is accounted exactly and attributed as a window loss at
// the position it would have occupied, so downstream reports carry the
// degraded-confidence annotation.
enum class StreamShedPolicy : std::uint8_t {
  // Refuse the new record (freshest data is lost; queued context survives).
  DropNewest,
  // Evict the oldest queued record to admit the new one (context is lost;
  // the stream stays current — the usual choice for live detection).
  DropOldest,
};

struct GretelConfig {
  // FPmax · 384 · the longest fingerprint in the database, in messages.
  // One of the two lower bounds on the window: a snapshot must be able to
  // hold a whole operation, or truncated matching loses literals (Fig. 4).
  std::size_t fp_max = 384;

  // Prate · 150.0 · observed capture rate in packets per second.  The other
  // window bound: α must cover at least t seconds of traffic at this rate.
  double p_rate = 150.0;

  // t · 1.0 · window time horizon in seconds; multiplies Prate in α.
  double t_seconds = 1.0;

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

  // (implementation) · SymbolSubsequence · fingerprint matching backend;
  // StdRegex is the ablation analog of the paper's Perl offload.
  MatchBackend backend = MatchBackend::SymbolSubsequence;

  // (Fig. 4 relaxation) · 4 · minimum trailing literals that must be
  // evidenced before the fault when the snapshot cannot reach back to the
  // operation's start; candidates with fewer literals must show them all.
  std::size_t min_literal_suffix = 4;

  // (implementation) · 2.0 s · the faulty operation is executing *at* the
  // fault, so its most recent state-change literal must have occurred
  // within this many seconds before the fault; coincidental matches
  // scattered across the window fail this anchoring requirement.
  double anchor_proximity_seconds = 2.0;

  // (implementation) · 0.5 · operational matching keeps the candidates
  // whose anchored backward evidence (consumed literals) is within this
  // fraction of the best candidate's: the faulty operation accumulates
  // evidence as the context buffer grows while coincidental matches stay
  // shallow.
  double evidence_ratio = 0.5;

  // (θ stopping rule) · 5 · growth of the context buffer stops early once
  // the matched set and the deepest evidence have been stable for this many
  // consecutive growths (further context could only admit coincidental
  // matches and drop θ).
  int stable_growths_stop = 5;

  // (implementation) · 96 · two operational triggers for the same API
  // closer than this many events are treated as one fault (duplicate REST
  // error relays).
  std::size_t suppress_events = 96;

  // (threading) · fixed · the analyzer is serial: one thread runs detection,
  // Algorithm 2 and RCA.  Not knobs; kept only because perfbench's
  // serial-config guard (perfbench/src/e2e_main.cpp) still reads them.
  static constexpr std::size_t num_shards = 1;
  static constexpr std::size_t num_match_workers = 0;

  // (hot path) · 64 · slab size, in KiB, of the capture-tap decode arena.
  // Every decode batch parses into string_views over arena-backed scratch
  // and the arena resets (retaining its slabs) per batch, so after warmup
  // the decode path performs zero heap allocations.  Raise it if captures
  // carry unusually large header blocks; one slab must fit the parsed
  // header array plus the normalized URI of a single record.
  std::size_t decode_arena_kb = 64;

  // (hot path) · 128 · records decoded per chunk by the batched wire
  // entry point (Analyzer::on_wire_batch) into a reusable event buffer.
  // Reports are byte-identical for any value.  Purely a throughput knob.
  std::size_t ingest_batch = 128;

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

  // --- monitoring plane (probed watchers; see docs/ARCHITECTURE.md,
  // "Monitoring plane & evidence model").  The defaults preserve exact
  // legacy behavior: under zero chaos every probe succeeds instantly on
  // its first attempt and flap_hysteresis = 1 reports state changes
  // immediately, so the probed substrate is byte-identical to the
  // oracle. ---

  // (monitoring) · 100.0 · per-attempt probe reply deadline, in simulated
  // milliseconds.  A probe whose reply misses the deadline counts as a
  // timeout and consumes the full deadline from the analysis budget.
  double probe_timeout_ms = 100.0;

  // (monitoring) · 2 · probe retries after the first attempt.  Each retry
  // waits an exponential backoff first.
  int probe_retries = 2;

  // (monitoring) · 10.0 · base of the retry backoff: retry r waits
  // min(backoff_cap_ms, backoff_base_ms · 2^r) scaled by deterministic
  // seeded jitter in [0.5, 1.0).
  double backoff_base_ms = 10.0;

  // (monitoring) · 1000.0 · upper bound on a single retry backoff.
  double backoff_cap_ms = 1000.0;

  // (monitoring) · 3 · consecutive probe failures (timeouts/drops) that
  // open a target's circuit breaker.  While open, the target is reported
  // Unknown at zero probe cost; after a cooldown the breaker half-opens
  // for a single trial probe.
  int breaker_open_after = 3;

  // (monitoring) · 1 · flap-suppression hysteresis: a dependency's
  // reported state only switches after this many consecutive agreeing
  // observations.  1 = switch immediately (the oracle behavior); larger
  // values suppress flapping agents at the cost of slower detection.
  int flap_hysteresis = 1;

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

  // --- fault-campaign engine (src/campaign/; see docs/ARCHITECTURE.md,
  // "Campaign engine & failure-mode clustering").  These knobs bound and
  // seed orchestrated multi-fault sweeps; they have no effect on a plain
  // analyzer. ---

  // (campaign) · 0xCA59A16E · root seed of a campaign.  Every scenario's
  // workload/executor/chaos/metric seeds are splitmix64-derived from
  // (this, stream, scenario index) — see util/seed.h — so scenario k and
  // k+1 draw uncorrelated streams and one seed reproduces a whole sweep.
  std::uint64_t campaign_seed = 0xCA59A16Eull;

  // (campaign) · 200000 · per-scenario event budget: the orchestrator
  // truncates a scenario's (post-chaos) wire stream to this many records
  // before analysis, so one pathological scenario cannot run away with the
  // sweep.  Deterministic — truncation happens at a fixed input index.
  // 0 = unbounded.
  std::size_t campaign_budget_events = 200000;

  // (campaign) · 2 · maximum simultaneous injected faults per generated
  // scenario (multi-fault classes: concurrent-independent and cascading
  // draw up to this many workload faults on top of any environmental root
  // cause).
  std::size_t campaign_max_concurrent_faults = 2;

  // --- streaming mode (src/stream/; see docs/ARCHITECTURE.md, "Streaming
  // mode").  These knobs only take effect when an Analyzer is constructed
  // with Options::streaming = true (which StreamAnalyzer does); a batch
  // analyzer ignores them entirely, so batch output is byte-identical to
  // pre-streaming builds. ---

  // (streaming) · 250 · incremental detection cadence in simulated
  // milliseconds: StreamAnalyzer drains its source ring, runs the
  // detector, force-emits overdue snapshots, sweeps orphans and refreshes
  // health once per tick as the watermark crosses each boundary.
  double stream_tick_ms = 250.0;

  // (streaming) · 8192 · capacity of the bounded source ring between the
  // producer and the pipeline, in records.  Credits granted to the
  // producer equal the free capacity (with low-watermark hysteresis: once
  // the ring fills, credits stay at zero until it drains to half), so a
  // cooperating producer never sheds.
  std::size_t stream_source_ring = 8192;

  // (streaming) · DropOldest · what admission does when the ring is full
  // and the producer pushes anyway.  Every shed record is accounted and
  // attributed as a window loss in place.
  StreamShedPolicy stream_shed_policy = StreamShedPolicy::DropOldest;

  // (streaming) · 4096 · cap on the whole in-flight (request-awaiting-
  // response) table (floor 64).  When a tap loses responses faster than the
  // orphan timeout reclaims them, the oldest pending request is evicted
  // with accounting (guard stat inflight_evicted) instead of growing the
  // map.  Batch mode leaves the cap unset.
  std::size_t stream_inflight_cap = 4096;

  // (streaming) · 2048 · retained recent latency samples per API.  Batch
  // mode keeps every sample for exact CDFs; streaming keeps the newest
  // [cap/2, cap] (amortized compaction) for report context, and the
  // constant-memory P² sketch (util/quantile_sketch.h) carries the
  // full-history baseline quantiles.  Detection is unaffected: the
  // level-shift detector owns its own bounded window.
  std::size_t stream_series_cap = 2048;

  // (streaming) · 0 = unbounded · metric-store retention horizon in
  // seconds.  When set, samples older than (newest − horizon) are trimmed
  // per series; must comfortably exceed rca_window_pad_seconds plus the
  // report-emission delay or RCA loses its baseline context.
  double stream_metrics_retention_s = 0.0;

  // (streaming) · 256 · StreamAnalyzer keeps the most recent reports in a
  // bounded ring for pull-based consumers; older reports are evicted with
  // accounting.  Push consumers (the report sink callback) see every
  // report regardless.
  std::size_t stream_report_cap = 256;

  // (streaming) · 2.0 · deadline, in seconds, after which a pending
  // trigger whose future half-window has not filled (the stream went
  // quiet) is force-emitted with the context that did arrive, so a fault
  // followed by silence still reports within a bounded delay.
  double stream_max_report_delay_s = 2.0;

  // --- durability (src/persist/; see docs/ARCHITECTURE.md, "Durability &
  // recovery").  These knobs only take effect when a StreamAnalyzer is
  // given a persistence directory; without one nothing is ever written and
  // streaming behavior is byte-identical to pre-durability builds. ---

  // (durability) · 5.0 · stream-time seconds between checkpoints.  On the
  // first tick boundary past the cadence the analyzer snapshots its
  // learned state (GRTCKP01, tmp+fsync+rename).  The recovery invariant is
  // phrased in this unit: a crash regresses at most this much learned
  // baseline.  Must be at least one stream tick — a sub-tick cadence can
  // never fire.
  double checkpoint_interval_s = 5.0;

  // (durability) · 2 · newest checkpoint files retained on disk; older
  // ones are pruned after each successful write.  ≥ 2 means a checkpoint
  // torn by a crash mid-write still leaves a previous complete one to fall
  // back to (the loader falls back across corrupt files regardless).
  std::size_t checkpoint_keep = 2;

  // (durability) · 4096 · journal records per WAL segment before rotation.
  // Smaller segments bound the replay-scan cost after a crash; larger ones
  // reduce file churn.  Fully checkpoint-covered segments are purged at
  // each checkpoint.
  std::size_t journal_segment_records = 4096;

  // Sanity-checks the knob surface; returns one itemized, human-readable
  // error per nonsensical value (empty = valid).  Tool CLIs call this
  // after flag parsing and refuse to start on errors — a zero tick or a
  // negative cap otherwise surfaces as a hung stream or a silent div/0
  // far from the flag that caused it.
  std::vector<std::string> validate() const {
    std::vector<std::string> errors;
    const auto bad = [&errors](const std::string& msg) {
      errors.push_back(msg);
    };
    if (fp_max == 0) bad("fp_max must be > 0 (longest fingerprint bound)");
    if (!std::isfinite(p_rate) || p_rate <= 0.0)
      bad("p_rate must be a finite rate > 0 packets/s");
    if (!std::isfinite(t_seconds) || t_seconds <= 0.0)
      bad("t_seconds must be a finite horizon > 0 s");
    if (!std::isfinite(c1) || c1 <= 0.0)
      bad("c1 (initial context fraction) must be > 0");
    if (!std::isfinite(c2) || c2 <= 0.0)
      bad("c2 (context growth fraction) must be > 0");
    if (!std::isfinite(evidence_ratio) || evidence_ratio <= 0.0 ||
        evidence_ratio > 1.0)
      bad("evidence_ratio must be in (0, 1]");
    if (stable_growths_stop < 1) bad("stable_growths_stop must be >= 1");
    if (!std::isfinite(anchor_proximity_seconds) ||
        anchor_proximity_seconds < 0.0)
      bad("anchor_proximity_seconds must be >= 0");
    if (decode_arena_kb == 0) bad("decode_arena_kb must be > 0");
    if (ingest_batch == 0) bad("ingest_batch must be > 0");
    if (!std::isfinite(orphan_timeout_seconds) ||
        orphan_timeout_seconds < 0.0)
      bad("orphan_timeout_seconds must be >= 0 (0 = off)");
    if (!std::isfinite(rca_window_pad_seconds) ||
        rca_window_pad_seconds < 0.0)
      bad("rca_window_pad_seconds must be >= 0");
    if (!std::isfinite(rca_k_sigma) || rca_k_sigma <= 0.0)
      bad("rca_k_sigma must be > 0");
    if (!std::isfinite(probe_timeout_ms) || probe_timeout_ms <= 0.0)
      bad("probe_timeout_ms must be > 0");
    if (probe_retries < 0) bad("probe_retries must be >= 0");
    if (!std::isfinite(backoff_base_ms) || backoff_base_ms < 0.0)
      bad("backoff_base_ms must be >= 0");
    if (!std::isfinite(backoff_cap_ms) || backoff_cap_ms < 0.0)
      bad("backoff_cap_ms must be >= 0");
    if (breaker_open_after < 1) bad("breaker_open_after must be >= 1");
    if (flap_hysteresis < 1) bad("flap_hysteresis must be >= 1");
    if (!std::isfinite(metric_staleness_s) || metric_staleness_s < 0.0)
      bad("metric_staleness_s must be >= 0 (0 = off)");
    if (!std::isfinite(probe_budget_ms) || probe_budget_ms < 0.0)
      bad("probe_budget_ms must be >= 0 (0 = unbounded)");
    if (campaign_max_concurrent_faults == 0)
      bad("campaign_max_concurrent_faults must be >= 1");
    if (!std::isfinite(stream_tick_ms) || stream_tick_ms <= 0.0)
      bad("stream_tick_ms must be > 0 (a zero tick never advances)");
    if (stream_source_ring == 0) bad("stream_source_ring must be > 0");
    if (stream_report_cap == 0) bad("stream_report_cap must be > 0");
    if (!std::isfinite(stream_max_report_delay_s) ||
        stream_max_report_delay_s < 0.0)
      bad("stream_max_report_delay_s must be >= 0 (0 = off)");
    if (!std::isfinite(stream_metrics_retention_s) ||
        stream_metrics_retention_s < 0.0)
      bad("stream_metrics_retention_s must be >= 0 (0 = unbounded)");
    if (!std::isfinite(checkpoint_interval_s) || checkpoint_interval_s <= 0.0)
      bad("checkpoint_interval_s must be > 0");
    else if (std::isfinite(stream_tick_ms) && stream_tick_ms > 0.0 &&
             checkpoint_interval_s * 1000.0 < stream_tick_ms)
      bad("checkpoint_interval_s must be at least one stream tick "
          "(a sub-tick cadence can never fire)");
    if (checkpoint_keep == 0) bad("checkpoint_keep must be >= 1");
    if (journal_segment_records == 0)
      bad("journal_segment_records must be > 0");
    return errors;
  }

  std::size_t alpha() const {
    const auto rate_window =
        static_cast<std::size_t>(p_rate * t_seconds);
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
