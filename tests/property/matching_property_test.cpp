// Algebraic properties of the matching machinery, swept over random inputs:
// subsequence monotonicity, truncation ordering, θ bounds, and the
// LCS/fingerprint relationships Algorithm 1 relies on.
#include <gtest/gtest.h>

#include "gretel/fingerprint_db.h"
#include "gretel/lcs.h"
#include "gretel/matcher.h"
#include "gretel/op_detector.h"
#include "util/rng.h"

namespace gretel::core {
namespace {

using wire::ApiCatalog;
using wire::ApiId;

ApiCatalog mixed_catalog() {
  ApiCatalog cat;
  for (int i = 0; i < 10; ++i) {
    cat.add_rest(wire::ServiceKind::Nova,
                 i % 2 ? wire::HttpMethod::Post : wire::HttpMethod::Get,
                 "/api" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    cat.add_rpc(wire::ServiceKind::NovaCompute, "nova-compute",
                "m" + std::to_string(i));
  }
  return cat;
}

std::vector<ApiId> random_seq(util::Rng& rng, std::size_t max_len,
                              std::uint16_t alphabet) {
  std::vector<ApiId> out;
  const auto len = rng.next_below(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    out.emplace_back(static_cast<std::uint16_t>(rng.next_below(alphabet)));
  }
  return out;
}

class MatchingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingProperty, MatchSurvivesInsertions) {
  // If literals match a snapshot, they match any supersequence of it —
  // the paper's claim that interleaved foreign messages don't break
  // matching.
  const auto catalog = mixed_catalog();
  const Matcher m(&catalog, true);
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    auto snapshot = random_seq(rng, 60, 14);
    auto literals = random_seq(rng, 6, 14);
    if (literals.empty()) continue;
    if (!m.matches(literals, snapshot)) continue;

    // Insert random foreign symbols.
    auto inflated = snapshot;
    for (int k = 0; k < 10; ++k) {
      const auto pos = rng.next_below(inflated.size() + 1);
      inflated.insert(
          inflated.begin() + static_cast<std::ptrdiff_t>(pos),
          ApiId(static_cast<std::uint16_t>(rng.next_below(14))));
    }
    EXPECT_TRUE(m.matches(literals, inflated));
  }
}

TEST_P(MatchingProperty, TruncationsAreNestedPrefixes) {
  util::Rng rng(GetParam() * 3);
  for (int trial = 0; trial < 60; ++trial) {
    const auto seq = random_seq(rng, 40, 6);
    if (seq.empty()) continue;
    const auto target = seq[rng.next_below(seq.size())];
    const auto first = Matcher::truncate_at_first(seq, target);
    const auto last = Matcher::truncate_at_last(seq, target);
    ASSERT_LE(first.size(), last.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], seq[i]);
      EXPECT_EQ(last[i], seq[i]);
    }
    EXPECT_EQ(first.back(), target);
    EXPECT_EQ(last.back(), target);
  }
}

TEST_P(MatchingProperty, LcsLengthBoundedByInputs) {
  util::Rng rng(GetParam() * 7);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = random_seq(rng, 50, 5);
    const auto b = random_seq(rng, 50, 5);
    const auto lcs = longest_common_subsequence(a, b);
    EXPECT_LE(lcs.size(), std::min(a.size(), b.size()));
    // Folding with itself is identity.
    EXPECT_EQ(longest_common_subsequence(a, a), a);
  }
}

TEST_P(MatchingProperty, ThetaWithinUnitInterval) {
  const auto catalog = mixed_catalog();
  FingerprintDb db;
  util::Rng rng(GetParam() * 11);
  const auto n_fps = 2 + rng.next_below(30);
  for (std::size_t i = 0; i < n_fps; ++i) {
    Fingerprint fp;
    fp.op = wire::OpTemplateId(static_cast<std::uint32_t>(i));
    fp.name = "op";
    fp.sequence = random_seq(rng, 10, 14);
    if (fp.sequence.empty()) fp.sequence.push_back(ApiId(0));
    for (auto api : fp.sequence) {
      if (catalog.get(api).state_change()) fp.state_sequence.push_back(api);
    }
    db.add(fp);
  }
  const OperationDetector det(&db, &catalog, GretelConfig{});
  for (std::size_t n = 0; n <= db.size(); ++n) {
    const double theta = det.theta(n);
    EXPECT_GE(theta, 0.0);
    EXPECT_LE(theta, 1.0);
  }
  EXPECT_DOUBLE_EQ(det.theta(1), 1.0);
}

TEST_P(MatchingProperty, RequiredLiteralsAreStateChangeSubsequence) {
  const auto catalog = mixed_catalog();
  const Matcher with_rpc(&catalog, true);
  const Matcher no_rpc(&catalog, false);
  util::Rng rng(GetParam() * 13);
  for (int trial = 0; trial < 60; ++trial) {
    const auto seq = random_seq(rng, 40, 14);
    const auto all = with_rpc.required_literals(seq);
    const auto rest_only = no_rpc.required_literals(seq);
    // Every literal is a state change; RPC pruning removes a subset.
    for (auto api : all) EXPECT_TRUE(catalog.get(api).state_change());
    EXPECT_LE(rest_only.size(), all.size());
    // rest_only is a subsequence of all.
    std::size_t need = 0;
    for (auto api : all) {
      if (need < rest_only.size() && api == rest_only[need]) ++need;
    }
    EXPECT_EQ(need, rest_only.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MatchingProperty,
    ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace gretel::core
