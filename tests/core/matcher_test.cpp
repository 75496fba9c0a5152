#include "gretel/matcher.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>

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
  const Matcher m(&catalog_, true);
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
  const Matcher m(&catalog_, /*include_rpc=*/true);
  // GET(0) POST(4) RPC(8) GET(1) POST(5) -> POST RPC POST.
  EXPECT_EQ(m.required_literals(ids({0, 4, 8, 1, 5})), ids({4, 8, 5}));
}

TEST_F(MatcherTest, RequiredLiteralsRpcPruned) {
  const Matcher m(&catalog_, /*include_rpc=*/false);
  EXPECT_EQ(m.required_literals(ids({0, 4, 8, 1, 5})), ids({4, 5}));
}

TEST_F(MatcherTest, MatchesInOrderWithInterleaving) {
  const Matcher m(&catalog_, true);
  // Fig. 4's property: foreign symbols interleave but order is preserved.
  EXPECT_TRUE(m.matches(ids({4, 5}), ids({0, 4, 1, 2, 5, 3})));
  EXPECT_FALSE(m.matches(ids({5, 4}), ids({0, 4, 1, 2, 5, 3})));
}

TEST_F(MatcherTest, MissingLiteralFailsMatch) {
  const Matcher m(&catalog_, true);
  EXPECT_FALSE(m.matches(ids({4, 6}), ids({4, 5})));
}

TEST_F(MatcherTest, EmptyLiteralsNeverMatch) {
  const Matcher m(&catalog_, true);
  EXPECT_FALSE(m.matches({}, ids({4, 5})));
}

TEST_F(MatcherTest, EmptySnapshotNeverMatches) {
  const Matcher m(&catalog_, true);
  EXPECT_FALSE(m.matches(ids({4}), {}));
}

TEST_F(MatcherTest, RepeatedLiteralsNeedRepeatedOccurrences) {
  const Matcher m(&catalog_, true);
  EXPECT_FALSE(m.matches(ids({4, 4}), ids({0, 4, 1})));
  EXPECT_TRUE(m.matches(ids({4, 4}), ids({4, 0, 4})));
}

// The paper's matcher is a regex over the capture (each literal joined by
// ".*", offloaded to Perl); Matcher::matches is the same language over
// ApiIds.  This reference evaluates that regex with std::regex over a
// two-character encoding of each symbol, so the symbol kernel's semantics
// stay pinned to the paper's.
void encode_api(ApiId api, std::string& out) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@#";
  out += kAlphabet[(api.value() >> 6) & 63];
  out += kAlphabet[api.value() & 63];
}

bool regex_reference(const std::vector<ApiId>& literals,
                     const std::vector<ApiId>& snapshot) {
  std::string text;
  for (auto api : snapshot) encode_api(api, text);
  // Literals joined by (..)*? so skipped symbols stay pair-aligned;
  // anchoring at the start keeps the alignment absolute (a match beginning
  // at an odd text offset would straddle two encoded symbols).
  std::string pattern = "^(..)*?";
  for (std::size_t i = 0; i < literals.size(); ++i) {
    if (i) pattern += "(..)*?";
    encode_api(literals[i], pattern);
  }
  return std::regex_search(text, std::regex(pattern));
}

// Property sweep: the symbol matcher accepts exactly what the paper's regex
// accepts, on fixed examples and on random inputs.
class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, SubsequenceEqualsRegex) {
  ApiCatalog catalog;
  for (int i = 0; i < 12; ++i) {
    catalog.add_rest(ServiceKind::Nova, HttpMethod::Post,
                     "/p" + std::to_string(i));
  }
  const Matcher m(&catalog, true);

  const auto example = ids({0, 4, 1, 8, 2, 5, 9, 3});
  for (const auto& lits :
       {ids({4, 5}), ids({4, 8, 5}), ids({8, 9}), ids({5, 4}),
        ids({4, 4}), ids({9, 8})}) {
    EXPECT_EQ(m.matches(lits, example), regex_reference(lits, example));
  }

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
    EXPECT_EQ(m.matches(literals, snapshot),
              regex_reference(literals, snapshot))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(1, 11));

}  // namespace
}  // namespace gretel::core
