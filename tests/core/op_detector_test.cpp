#include "gretel/op_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/rng.h"

namespace gretel::core {
namespace {

using wire::ApiCatalog;
using wire::ApiId;
using wire::Direction;
using wire::Event;
using wire::HttpMethod;
using wire::ServiceKind;

// Catalog with GETs 0..5, POSTs 6..11, RPCs 12..13.
class OpDetectorTest : public ::testing::Test {
 protected:
  OpDetectorTest() {
    for (int i = 0; i < 6; ++i) {
      catalog_.add_rest(ServiceKind::Nova, HttpMethod::Get,
                        "/g" + std::to_string(i));
    }
    for (int i = 0; i < 6; ++i) {
      catalog_.add_rest(ServiceKind::Nova, HttpMethod::Post,
                        "/p" + std::to_string(i));
    }
    catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute", "r0");
    catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute", "r1");
  }

  Fingerprint make_fp(std::uint32_t op, std::initializer_list<int> seq) {
    Fingerprint fp;
    fp.op = wire::OpTemplateId(op);
    fp.name = "op-" + std::to_string(op);
    for (int x : seq) {
      fp.sequence.emplace_back(static_cast<std::uint16_t>(x));
      if (catalog_.get(fp.sequence.back()).state_change())
        fp.state_sequence.push_back(fp.sequence.back());
    }
    return fp;
  }

  // Builds a window of request events from api ids; every event a request.
  static std::vector<Event> window_of(std::initializer_list<int> apis) {
    std::vector<Event> out;
    std::uint64_t seq = 0;
    for (int a : apis) {
      Event ev;
      ev.seq = seq++;
      ev.api = ApiId(static_cast<std::uint16_t>(a));
      ev.dir = Direction::Request;
      out.push_back(ev);
    }
    return out;
  }

  GretelConfig tiny_config() {
    GretelConfig config;
    config.fp_max = 8;  // α = 16
    config.p_rate = 1.0;
    config.match_rpc = true;
    return config;
  }

  ApiCatalog catalog_;
};

TEST_F(OpDetectorTest, ThetaFormula) {
  FingerprintDb db;
  for (std::uint32_t i = 0; i < 11; ++i) db.add(make_fp(i, {6}));
  OperationDetector det(&db, &catalog_, tiny_config());
  EXPECT_DOUBLE_EQ(det.theta(1), 1.0);   // single match: perfect
  EXPECT_DOUBLE_EQ(det.theta(11), 0.0);  // everything matched: useless
  EXPECT_DOUBLE_EQ(det.theta(6), 0.5);
  EXPECT_DOUBLE_EQ(det.theta(0), 0.0);   // no match: no information
}

TEST_F(OpDetectorTest, SingleCandidateExactMatch) {
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {6, 0, 7, 1}));  // P G P G
  OperationDetector det(&db, &catalog_, tiny_config());

  const auto window = window_of({6, 0, 7, 1});
  const auto result = det.detect(window, 2, ApiId(7), /*truncate=*/true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
  EXPECT_DOUBLE_EQ(result.theta, 1.0);
  EXPECT_EQ(result.candidates, 1u);
}

TEST_F(OpDetectorTest, NoCandidatesForUnknownApi) {
  FingerprintDb db;
  db.add(make_fp(0, {6, 7}));
  OperationDetector det(&db, &catalog_, tiny_config());
  const auto window = window_of({6, 7});
  const auto result = det.detect(window, 1, ApiId(9), true);
  EXPECT_TRUE(result.matched.empty());
  EXPECT_EQ(result.candidates, 0u);
  EXPECT_DOUBLE_EQ(result.theta, 0.0);
}

TEST_F(OpDetectorTest, TruncationIgnoresStepsAfterFault) {
  // Fingerprint P6 P7 P8: the operation aborted at P7, so P8 never shows.
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {6, 7, 8}));
  OperationDetector det(&db, &catalog_, tiny_config());
  const auto window = window_of({6, 7});
  const auto result = det.detect(window, 1, ApiId(7), /*truncate=*/true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
}

TEST_F(OpDetectorTest, WithoutTruncationAbortedOpDoesNotMatch) {
  FingerprintDb db;
  db.add(make_fp(0, {6, 7, 8}));
  OperationDetector det(&db, &catalog_, tiny_config());
  const auto window = window_of({6, 7});
  const auto result = det.detect(window, 1, ApiId(7), /*truncate=*/false);
  EXPECT_TRUE(result.matched.empty());
}

TEST_F(OpDetectorTest, InterleavedForeignSymbolsTolerated) {
  // Fig. 4: E..F preserved despite interleavings and a missing optional A.
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {0, 6, 1, 7, 2}));  // G P G P G
  db.add(make_fp(1, {8, 9}));
  OperationDetector det(&db, &catalog_, tiny_config());

  const auto window = window_of({6, 3, 8, 1, 9, 7, 4});
  const auto result = det.detect(window, 5, ApiId(7), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
}

TEST_F(OpDetectorTest, RpcPruningStillMatches) {
  auto config = tiny_config();
  config.match_rpc = false;
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {6, 12, 7}));  // P RPC P
  OperationDetector det(&db, &catalog_, config);
  // Snapshot misses the RPC entirely (e.g. it rode a different tap).
  const auto window = window_of({6, 7});
  const auto result = det.detect(window, 1, ApiId(7), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
}

TEST_F(OpDetectorTest, WithRpcMatchingRequiresRpcInSnapshot) {
  FingerprintDb db;
  db.add(make_fp(0, {6, 12, 7}));
  OperationDetector det(&db, &catalog_, tiny_config());  // match_rpc
  const auto window = window_of({6, 7});
  const auto result = det.detect(window, 1, ApiId(7), true);
  EXPECT_TRUE(result.matched.empty());
}

TEST_F(OpDetectorTest, StopsWhenPrecisionWouldDrop) {
  // Two candidates contain P7.  Near the fault only op0 matches; the decoy's
  // literal P8 appears far away in the window.  Growth must stop before
  // admitting the decoy.
  FingerprintDb db;
  const auto good = db.add(make_fp(0, {6, 7}));
  db.add(make_fp(1, {8, 7}));

  GretelConfig config = tiny_config();
  config.fp_max = 16;  // α = 32, β0 = 3, δ = 1
  config.c1 = 0.1;
  config.c2 = 0.04;
  OperationDetector det(&db, &catalog_, config);

  // Window: P8 far left ... P6 P7(fault) ... padding right.
  std::vector<int> apis{8, 0, 1, 2, 3, 4, 5, 0, 1, 2, 6, 7,
                        0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5};
  std::vector<Event> window;
  std::uint64_t seq = 0;
  for (int a : apis) {
    Event ev;
    ev.seq = seq++;
    ev.api = ApiId(static_cast<std::uint16_t>(a));
    ev.dir = Direction::Request;
    window.push_back(ev);
  }
  const auto result = det.detect(window, 11, ApiId(7), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], good);
  EXPECT_DOUBLE_EQ(result.theta, 1.0);
  EXPECT_LT(result.beta_final, 11u);  // stopped before reaching the decoy
}

TEST_F(OpDetectorTest, GrowsUntilMatchFound) {
  // The only literal pair spans more than β0 messages: the detector must
  // keep growing past empty iterations instead of stopping at n=0.
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {6, 7}));
  GretelConfig config = tiny_config();
  config.fp_max = 16;  // β0 = 3, δ = 1
  OperationDetector det(&db, &catalog_, config);

  std::vector<int> apis;
  apis.push_back(6);
  for (int i = 0; i < 8; ++i) apis.push_back(i % 6);  // GET padding
  apis.push_back(7);
  const auto window = window_of({6, 0, 1, 2, 3, 4, 5, 0, 1, 7});
  (void)apis;
  const auto result = det.detect(window, 9, ApiId(7), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
  EXPECT_GT(result.beta_final, 3u);
}

TEST_F(OpDetectorTest, ResponsesIgnoredInPattern) {
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {6, 7}));
  OperationDetector det(&db, &catalog_, tiny_config());

  std::vector<Event> window = window_of({6, 7});
  Event resp;
  resp.api = ApiId(8);  // a response for another op's POST
  resp.dir = Direction::Response;
  resp.status = 200;
  window.insert(window.begin() + 1, resp);
  const auto result = det.detect(window, 2, ApiId(7), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
}

TEST_F(OpDetectorTest, DegenerateTruncationAnchorsOnOffendingApi) {
  // Offending API is the leading GET: the truncated prefix has no state
  // change, so the detector anchors on the offending API itself.
  FingerprintDb db;
  const auto idx = db.add(make_fp(0, {0, 6, 7}));
  OperationDetector det(&db, &catalog_, tiny_config());
  const auto window = window_of({0, 1, 2});
  const auto result = det.detect(window, 0, ApiId(0), true);
  ASSERT_EQ(result.matched.size(), 1u);
  EXPECT_EQ(result.matched[0], idx);
}

TEST_F(OpDetectorTest, AnchorFailureIsFinal) {
  // Offending GET 0; the truncated prefix's literals are P6 P7, so the
  // anchor is the rightmost P7 below the fault.  That P7 is stamped 5 s
  // before the fault (clock skew), so the operation is not anchored — and
  // an older P7 stamped within 2 s, reached by a later growth, must not
  // rescue it.
  FingerprintDb db;
  db.add(make_fp(0, {6, 7, 0}));
  OperationDetector det(&db, &catalog_, tiny_config());  // β0 = δ = 1
  const std::vector<std::pair<int, double>> rows{
      {6, 9.0}, {7, 9.5}, {1, 9.6}, {2, 9.7}, {7, 5.0}, {3, 9.9}, {0, 10.0}};
  std::vector<Event> window;
  for (const auto& [api, ts] : rows) {
    Event ev;
    ev.seq = window.size();
    ev.api = ApiId(static_cast<std::uint16_t>(api));
    ev.ts = util::SimTime::epoch() +
            util::SimDuration::millis(static_cast<std::int64_t>(ts * 1000));
    window.push_back(ev);
  }
  const auto result = det.detect(window, 6, ApiId(0), /*truncate=*/true);
  EXPECT_TRUE(result.matched.empty());
  EXPECT_EQ(result.best_evidence, 0u);
}

TEST_F(OpDetectorTest, EmptyWindowReturnsNoMatch) {
  // Default config: correlation ids are on, so the detector looks up the
  // faulty message's id — an empty window has no such message.
  FingerprintDb db;
  db.add(make_fp(0, {6, 7}));
  OperationDetector det(&db, &catalog_, GretelConfig{});
  for (const bool truncate : {true, false}) {
    const auto result =
        det.detect(std::span<const Event>{}, 0, ApiId(7), truncate);
    EXPECT_TRUE(result.matched.empty());
    EXPECT_EQ(result.candidates, 1u);
    EXPECT_EQ(result.beta_final, 0u);
    EXPECT_DOUBLE_EQ(result.theta, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Seeded property: the detector sweeps each growth's new rows once with
// every variant's cursor waiting on its next literal, and re-tests only
// unmatched candidates; the reference below recomputes every β step from
// scratch over the whole slice, one variant walk at a time, with no mask
// gates and no state carried between steps.  Running both on every
// left-cropped copy of a window — cropped where β step k reaches the
// window's first row, so step k is the last — compares them at every step:
// the matched set, the deepest evidence, β_final and θ.  One detector
// serves every call of a trial, interleaved with calls on other faults,
// offending APIs and modes, and must agree with a fresh detector each
// time: its wait lists are empty whenever detect() returns.
// ---------------------------------------------------------------------------

// The fixture catalog's size: GETs, POSTs, RPCs.  Window symbols at or
// above it lie outside the catalog.
constexpr int kFixtureApis = 14;

// Algorithm 2's fixed tuning (op_detector.cpp).
constexpr std::size_t kRefMinLiteralSuffix = 4;
constexpr double kRefAnchorProximitySeconds = 2.0;
constexpr double kRefEvidenceRatio = 0.5;
constexpr int kRefStableGrowthsStop = 5;

// What the generated inputs exercised, so a generator change that stops
// covering a case fails loudly instead of passing vacuously.
struct RefCoverage {
  std::size_t anchor_failures = 0;
  std::size_t empty_slices = 0;        // a β step with lo == hi
  std::size_t multi_variant = 0;       // candidates with several variants
  std::size_t corr_filtered = 0;       // windows reduced by correlation id
  std::size_t nonempty_matches = 0;
  // A walk consumed two adjacent equal literals (a run of one symbol).
  std::size_t equal_literal_runs = 0;
  // A β step in which two or more walks consumed the same row: their
  // cursors waited on one symbol at that row.
  std::size_t shared_rows = 0;
  // Request rows outside the catalog inside a backward slice.
  std::size_t foreign_symbols = 0;
  // Per slice row of the current β step: walks that consumed it.
  std::vector<std::size_t> row_uses;
};

// Greedy backward walk, one symbol per step from the fault down.
std::size_t ref_backward_evidence(std::span<const ApiId> literals,
                                  std::span<const ApiId> slice,
                                  std::span<const double> slice_ts,
                                  double fault_ts, RefCoverage& cov) {
  if (literals.empty() || slice.empty()) return 0;
  std::size_t i = literals.size();
  std::size_t p = slice.size();
  while (i > 0 && p > 0) {
    --p;
    if (slice[p] != literals[i - 1]) continue;
    if (i == literals.size() &&
        fault_ts - slice_ts[p] > kRefAnchorProximitySeconds) {
      ++cov.anchor_failures;
      return 0;
    }
    --i;
    ++cov.row_uses[p];
    if (i + 1 < literals.size() && literals[i] == literals[i + 1])
      ++cov.equal_literal_runs;
  }
  const std::size_t consumed = literals.size() - i;
  if (consumed < std::min(kRefMinLiteralSuffix, literals.size())) return 0;
  return consumed;
}

DetectionResult reference_detect(const OperationDetector& det,
                                 const FingerprintDb& db,
                                 const GretelConfig& config,
                                 std::span<const Event> window,
                                 std::size_t fault_index, ApiId offending,
                                 bool truncate, RefCoverage& cov) {
  DetectionResult result;
  // The inverted index, and each candidate's variants from the cache —
  // listed in the same order.
  const auto& candidates = db.containing(offending);
  const auto cached = det.variants().candidates(offending);
  if (cached.size() != candidates.size()) {
    ADD_FAILURE() << "the variant cache lists " << cached.size()
                  << " candidates, the inverted index " << candidates.size();
    return result;
  }
  for (std::size_t ci = 0; ci < candidates.size(); ++ci)
    EXPECT_EQ(cached[ci].index, candidates[ci]);
  const auto variants_of = [&](std::size_t ci) -> const auto& {
    return (truncate ? cached[ci].truncated : cached[ci].full).literals;
  };
  result.candidates = candidates.size();
  if (candidates.empty() || window.empty()) return result;
  const std::size_t fault_row = std::min(fault_index, window.size() - 1);
  const std::uint32_t fault_corr =
      config.use_correlation_ids ? window[fault_row].correlation_id : 0;

  std::vector<ApiId> apis;
  std::vector<double> ts;
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (!window[i].is_request()) continue;
    if (fault_corr != 0 && window[i].correlation_id != fault_corr) {
      ++cov.corr_filtered;
      continue;
    }
    apis.push_back(window[i].api);
    ts.push_back(window[i].ts.to_seconds());
    rows.push_back(i);
  }
  if (apis.empty()) return result;
  const double fault_ts = window[fault_row].ts.to_seconds();

  const std::size_t alpha = config.alpha();
  std::size_t beta = config.beta0();
  std::vector<FingerprintDb::Index> prev_matched;
  std::size_t prev_best = 0;
  int stable = 0;
  while (true) {
    const std::size_t lo_ev = fault_index > beta ? fault_index - beta : 0;
    const std::size_t hi_ev =
        truncate ? std::min(fault_index + 1, window.size())
                 : std::min(fault_index + beta + 1, window.size());
    const auto row_to_request = [&rows](std::size_t row) {
      return static_cast<std::size_t>(
          std::lower_bound(rows.begin(), rows.end(), row) - rows.begin());
    };
    const std::size_t lo = row_to_request(lo_ev);
    const std::size_t hi = row_to_request(hi_ev);
    if (lo == hi) ++cov.empty_slices;
    const std::span<const ApiId> slice(apis.data() + lo, hi - lo);
    const std::span<const double> slice_ts(ts.data() + lo, hi - lo);

    std::vector<FingerprintDb::Index> matched;
    std::size_t best = 0;
    if (truncate) {
      cov.row_uses.assign(slice.size(), 0);
      for (const auto api : slice)
        cov.foreign_symbols += api.value() >= kFixtureApis;
      std::vector<std::size_t> evidence(candidates.size(), 0);
      std::vector<bool> complete(candidates.size(), false);
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        const auto& variants = variants_of(ci);
        if (variants.size() > 1) ++cov.multi_variant;
        for (const auto& literals : variants) {
          const auto consumed = ref_backward_evidence(literals, slice,
                                                      slice_ts, fault_ts, cov);
          evidence[ci] = std::max(evidence[ci], consumed);
          if (consumed >= kRefMinLiteralSuffix && consumed == literals.size())
            complete[ci] = true;
        }
        best = std::max(best, evidence[ci]);
      }
      if (std::any_of(cov.row_uses.begin(), cov.row_uses.end(),
                      [](std::size_t uses) { return uses >= 2; }))
        ++cov.shared_rows;
      const auto cutoff = static_cast<std::size_t>(
          std::ceil(kRefEvidenceRatio * static_cast<double>(best)));
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        if (complete[ci] || (evidence[ci] > 0 && evidence[ci] >= cutoff))
          matched.push_back(candidates[ci]);
      }
    } else {
      for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
        for (const auto& literals : variants_of(ci)) {
          if (det.matcher().matches(literals, slice)) {
            matched.push_back(candidates[ci]);
            break;
          }
        }
      }
      best = matched.size();
    }

    if (!matched.empty() && matched == prev_matched && best == prev_best) {
      ++stable;
    } else {
      stable = 0;
    }
    const bool covered =
        (lo_ev == 0 || fault_index - lo_ev >= alpha / 2) &&
        (truncate || hi_ev == window.size() ||
         hi_ev - fault_index > alpha / 2);
    if (stable >= kRefStableGrowthsStop || covered) {
      if (!matched.empty()) ++cov.nonempty_matches;
      result.matched = std::move(matched);
      result.beta_final = beta;
      result.theta = det.theta(result.matched.size());
      result.best_evidence = best;
      return result;
    }
    prev_matched = std::move(matched);
    prev_best = best;
    beta += config.delta();
  }
}

class OpDetectorTestResume : public OpDetectorTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(OpDetectorTestResume, MatchesFromScratchReferenceAtEveryBeta) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  constexpr int kApis = kFixtureApis;
  RefCoverage cov;
  std::size_t compared = 0;

  for (int trial = 0; trial < 60; ++trial) {
    // Fingerprints share a hot API, repeated inside some of them so those
    // candidates carry several truncated-prefix variants; some repeat a
    // symbol back to back, giving variants adjacent equal literals.
    const auto hot = static_cast<int>(rng.next_below(kApis));
    FingerprintDb db;
    std::vector<std::vector<int>> sequences;
    const auto n_fps = 3 + rng.next_below(8);
    for (std::size_t f = 0; f < n_fps; ++f) {
      std::vector<int> seq;
      const auto len = 2 + rng.next_below(9);
      for (std::size_t i = 0; i < len; ++i)
        seq.push_back(rng.chance(0.25) ? hot
                                       : static_cast<int>(rng.next_below(kApis)));
      if (rng.chance(0.3)) {
        const auto at = rng.next_below(seq.size());
        seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at), seq[at]);
      }
      Fingerprint fp;
      fp.op = wire::OpTemplateId(static_cast<std::uint32_t>(f));
      fp.name = "op-" + std::to_string(f);
      for (int x : seq) {
        fp.sequence.emplace_back(static_cast<std::uint16_t>(x));
        if (catalog_.get(fp.sequence.back()).state_change())
          fp.state_sequence.push_back(fp.sequence.back());
      }
      db.add(fp);
      sequences.push_back(std::move(seq));
    }

    GretelConfig config;
    config.p_rate = 1.0;
    config.fp_max = 6 + rng.next_below(20);  // α = 2·fp_max
    if (rng.chance(0.3)) config.c2 = 0.15;    // coarser growth steps
    config.match_rpc = rng.chance(0.5);
    config.use_correlation_ids = rng.chance(0.5);
    OperationDetector det(&db, &catalog_, config);

    // Window: planted fingerprint executions interleaved with noise,
    // responses and correlation ids; occasional long gaps break anchors,
    // clock skew between nodes leaves some rows stamped out of order, and
    // some noise requests carry symbols outside the catalog.
    const double p_response = 0.1 + 0.6 * rng.next_double();
    const auto n = rng.next_below(110);
    std::vector<Event> window;
    std::vector<int> planted;
    std::size_t planted_pos = 0;
    std::uint32_t planted_corr = 1;
    std::int64_t t_ms = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t_ms += rng.chance(0.06) ? 2500 : static_cast<std::int64_t>(
                                            rng.next_below(400));
      Event ev;
      ev.seq = i;
      const std::int64_t skew_ms =
          rng.chance(0.2) ? rng.next_in(-1500, 1500) : 0;
      ev.ts = util::SimTime::epoch() +
              util::SimDuration::millis(10'000 + t_ms - skew_ms);
      if (planted_pos == planted.size()) {
        planted = sequences[rng.next_below(sequences.size())];
        planted_pos = 0;
        planted_corr = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      }
      if (rng.chance(p_response)) {
        ev.dir = Direction::Response;
        ev.api = ApiId(static_cast<std::uint16_t>(rng.next_below(kApis)));
        ev.status = rng.chance(0.1) ? 500 : 200;
        ev.correlation_id = static_cast<std::uint32_t>(rng.next_below(4));
      } else if (rng.chance(0.6)) {
        ev.dir = Direction::Request;
        ev.api = ApiId(static_cast<std::uint16_t>(planted[planted_pos++]));
        ev.correlation_id = planted_corr;
      } else {
        ev.dir = Direction::Request;
        ev.api = ApiId(static_cast<std::uint16_t>(
            rng.chance(0.1) ? kApis + rng.next_below(6)
                            : rng.next_below(kApis)));
        ev.correlation_id = static_cast<std::uint32_t>(rng.next_below(4));
      }
      window.push_back(ev);
    }

    // Fault: usually a window row, now and then past the window's end.
    const std::size_t fault_index =
        rng.chance(0.05) || n == 0 ? n + rng.next_below(3)
                                   : rng.next_below(n);
    const ApiId offending =
        fault_index < n && rng.chance(0.5)
            ? window[fault_index].api
            : ApiId(static_cast<std::uint16_t>(hot));

    for (const bool truncate : {true, false}) {
      // Crop the window so that each β step in turn is the last one; the
      // uncropped window runs to its own stopping point last.
      std::size_t beta = config.beta0();
      while (true) {
        const bool last = fault_index >= n || beta >= fault_index;
        const std::size_t first = last ? 0 : fault_index - beta;
        const std::size_t end =
            truncate || last ? n : std::min(n, fault_index + beta + 1);
        const std::span<const Event> crop(window.data() + first, end - first);
        const std::size_t fault = fault_index - first;
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                     std::to_string(trial) + " truncate " +
                     std::to_string(truncate) + " beta " +
                     std::to_string(beta));
        const auto want = reference_detect(det, db, config, crop, fault,
                                           offending, truncate, cov);
        // Another fault, offending API and mode on the same detector first.
        det.detect(window, rng.next_below(n + 1),
                   ApiId(static_cast<std::uint16_t>(rng.next_below(kApis))),
                   rng.chance(0.5));
        const auto got = det.detect(crop, fault, offending, truncate);
        EXPECT_EQ(got.matched, want.matched);
        EXPECT_EQ(got.best_evidence, want.best_evidence);
        EXPECT_EQ(got.beta_final, want.beta_final);
        EXPECT_EQ(got.theta, want.theta);
        EXPECT_EQ(got.candidates, want.candidates);
        const auto fresh = OperationDetector(&db, &catalog_, config)
                               .detect(crop, fault, offending, truncate);
        EXPECT_EQ(got.matched, fresh.matched);
        EXPECT_EQ(got.best_evidence, fresh.best_evidence);
        EXPECT_EQ(got.beta_final, fresh.beta_final);
        EXPECT_EQ(got.theta, fresh.theta);
        ++compared;
        if (last) break;
        beta += config.delta();
      }
    }
  }

  EXPECT_GT(compared, 500u);
  EXPECT_GT(cov.anchor_failures, 0u);
  EXPECT_GT(cov.empty_slices, 0u);
  EXPECT_GT(cov.multi_variant, 0u);
  EXPECT_GT(cov.corr_filtered, 0u);
  EXPECT_GT(cov.nonempty_matches, 0u);
  EXPECT_GT(cov.equal_literal_runs, 0u);
  EXPECT_GT(cov.shared_rows, 0u);
  EXPECT_GT(cov.foreign_symbols, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpDetectorTestResume,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace gretel::core
