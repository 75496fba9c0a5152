#include "gretel/matcher.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace gretel::core {
namespace {

using wire::ApiCatalog;
using wire::ApiId;
using wire::HttpMethod;
using wire::ServiceKind;

std::vector<ApiId> ids(std::initializer_list<int> xs) {
  std::vector<ApiId> out;
  for (int x : xs) out.emplace_back(static_cast<std::uint16_t>(x));
  return out;
}

// truncate_at_* returns a view into its input; materialize for EXPECT_EQ.
std::vector<ApiId> to_vec(std::span<const ApiId> s) {
  return {s.begin(), s.end()};
}

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() {
    // Ids 0..3: GETs; 4..7: POSTs; 8..9: RPCs.
    for (int i = 0; i < 4; ++i) {
      catalog_.add_rest(ServiceKind::Nova, HttpMethod::Get,
                        "/g" + std::to_string(i));
    }
    for (int i = 0; i < 4; ++i) {
      catalog_.add_rest(ServiceKind::Nova, HttpMethod::Post,
                        "/p" + std::to_string(i));
    }
    catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute", "r0");
    catalog_.add_rpc(ServiceKind::NovaCompute, "nova-compute", "r1");
  }

  ApiCatalog catalog_;
};

TEST_F(MatcherTest, TruncateAtLastOccurrence) {
  const auto seq = ids({4, 0, 5, 0, 6});
  EXPECT_EQ(to_vec(Matcher::truncate_at_last(seq, ApiId(0))),
            ids({4, 0, 5, 0}));
  EXPECT_EQ(to_vec(Matcher::truncate_at_last(seq, ApiId(4))), ids({4}));
  EXPECT_EQ(to_vec(Matcher::truncate_at_last(seq, ApiId(6))), seq);
}

TEST_F(MatcherTest, TruncateAbsentApiKeepsAll) {
  const auto seq = ids({4, 5});
  EXPECT_EQ(to_vec(Matcher::truncate_at_last(seq, ApiId(3))), seq);
  EXPECT_EQ(to_vec(Matcher::truncate_at_first(seq, ApiId(3))), seq);
}

TEST_F(MatcherTest, TruncationsAreViewsIntoTheInput) {
  // The no-allocation contract: the returned span aliases the input array.
  const auto seq = ids({4, 0, 5, 0, 6});
  const auto view = Matcher::truncate_at_last(seq, ApiId(0));
  EXPECT_EQ(view.data(), seq.data());
  EXPECT_EQ(Matcher::truncate_at_first(seq, ApiId(6)).data(), seq.data());
}

TEST_F(MatcherTest, TruncateAtFirstOccurrence) {
  const auto seq = ids({4, 0, 5, 0, 6});
  EXPECT_EQ(to_vec(Matcher::truncate_at_first(seq, ApiId(0))), ids({4, 0}));
  EXPECT_EQ(to_vec(Matcher::truncate_at_first(seq, ApiId(4))), ids({4}));
  EXPECT_EQ(to_vec(Matcher::truncate_at_first(seq, ApiId(6))), seq);
}

TEST_F(MatcherTest, FirstTruncationLiteralsPrefixLastTruncationLiterals) {
  // The property the detector relies on: matching the first-occurrence
  // prefix is implied by matching any later occurrence's prefix.
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  const auto seq = ids({4, 8, 5, 8, 6});
  const auto first = m.required_literals(
      Matcher::truncate_at_first(seq, ApiId(8)));
  const auto last = m.required_literals(
      Matcher::truncate_at_last(seq, ApiId(8)));
  ASSERT_LE(first.size(), last.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], last[i]);
  }
}

TEST_F(MatcherTest, RequiredLiteralsStateChangeOnly) {
  const Matcher m(&catalog_, {/*include_rpc=*/true,
                              MatchBackend::SymbolSubsequence});
  // GET(0) POST(4) RPC(8) GET(1) POST(5) -> POST RPC POST.
  EXPECT_EQ(m.required_literals(ids({0, 4, 8, 1, 5})), ids({4, 8, 5}));
}

TEST_F(MatcherTest, RequiredLiteralsRpcPruned) {
  const Matcher m(&catalog_, {/*include_rpc=*/false,
                              MatchBackend::SymbolSubsequence});
  EXPECT_EQ(m.required_literals(ids({0, 4, 8, 1, 5})), ids({4, 5}));
}

TEST_F(MatcherTest, MatchesInOrderWithInterleaving) {
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  // Fig. 4's property: foreign symbols interleave but order is preserved.
  EXPECT_TRUE(m.matches(ids({4, 5}), ids({0, 4, 1, 2, 5, 3})));
  EXPECT_FALSE(m.matches(ids({5, 4}), ids({0, 4, 1, 2, 5, 3})));
}

TEST_F(MatcherTest, MissingLiteralFailsMatch) {
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  EXPECT_FALSE(m.matches(ids({4, 6}), ids({4, 5})));
}

TEST_F(MatcherTest, EmptyLiteralsNeverMatch) {
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  EXPECT_FALSE(m.matches({}, ids({4, 5})));
}

TEST_F(MatcherTest, EmptySnapshotNeverMatches) {
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  EXPECT_FALSE(m.matches(ids({4}), {}));
}

TEST_F(MatcherTest, RepeatedLiteralsNeedRepeatedOccurrences) {
  const Matcher m(&catalog_, {true, MatchBackend::SymbolSubsequence});
  EXPECT_FALSE(m.matches(ids({4, 4}), ids({0, 4, 1})));
  EXPECT_TRUE(m.matches(ids({4, 4}), ids({4, 0, 4})));
}

TEST_F(MatcherTest, RegexBackendAgreesOnExamples) {
  const Matcher sub(&catalog_, {true, MatchBackend::SymbolSubsequence});
  const Matcher re(&catalog_, {true, MatchBackend::StdRegex});
  const auto snapshot = ids({0, 4, 1, 8, 2, 5, 9, 3});
  for (const auto& lits :
       {ids({4, 5}), ids({4, 8, 5}), ids({8, 9}), ids({5, 4}),
        ids({4, 4}), ids({9, 8})}) {
    EXPECT_EQ(sub.matches(lits, snapshot), re.matches(lits, snapshot));
  }
}

TEST_F(MatcherTest, RegexBackendCachesCompiledPatterns) {
  const Matcher re(&catalog_, {true, MatchBackend::StdRegex});
  const auto lits = ids({4, 5});
  EXPECT_TRUE(re.matches(lits, ids({0, 4, 1, 5})));
  EXPECT_EQ(re.regex_cache_misses(), 1u);
  EXPECT_EQ(re.regex_cache_hits(), 0u);
  // Same literal sequence, different snapshot: compiled pattern is reused.
  EXPECT_TRUE(re.matches(lits, ids({4, 2, 2, 5})));
  EXPECT_EQ(re.regex_cache_misses(), 1u);
  EXPECT_EQ(re.regex_cache_hits(), 1u);
  // New literal sequence compiles once more.
  EXPECT_FALSE(re.matches(ids({5, 4}), ids({0, 4, 1, 5})));
  EXPECT_EQ(re.regex_cache_misses(), 2u);
  EXPECT_EQ(re.regex_cache_hits(), 1u);
}

// Property sweep: the two backends implement identical semantics on random
// inputs (the §6 "offload matching to Perl" ablation hinges on this).
class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, SubsequenceEqualsRegex) {
  ApiCatalog catalog;
  for (int i = 0; i < 12; ++i) {
    catalog.add_rest(ServiceKind::Nova, HttpMethod::Post,
                     "/p" + std::to_string(i));
  }
  const Matcher sub(&catalog, {true, MatchBackend::SymbolSubsequence});
  const Matcher re(&catalog, {true, MatchBackend::StdRegex});

  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<ApiId> literals;
    std::vector<ApiId> snapshot;
    const auto nl = 1 + rng.next_below(5);
    const auto ns = rng.next_below(60);
    for (std::size_t i = 0; i < nl; ++i)
      literals.emplace_back(static_cast<std::uint16_t>(rng.next_below(12)));
    for (std::size_t i = 0; i < ns; ++i)
      snapshot.emplace_back(static_cast<std::uint16_t>(rng.next_below(12)));
    EXPECT_EQ(sub.matches(literals, snapshot), re.matches(literals, snapshot))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(1, 11));

}  // namespace
}  // namespace gretel::core
