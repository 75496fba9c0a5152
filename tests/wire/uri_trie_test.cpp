// ApiCatalog::resolve_rest and wire::is_identifier checked against their
// references: net::normalize_uri followed by ApiCatalog::find_rest, and
// net::looks_like_identifier.
#include "wire/uri_trie.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/capture.h"
#include "tempest/catalog.h"
#include "util/rng.h"
#include "wire/api.h"

namespace gretel::wire {
namespace {

std::optional<ApiId> reference(const ApiCatalog& cat, ServiceKind service,
                               HttpMethod method, std::string_view target) {
  return cat.find_rest(service, method, net::normalize_uri(target));
}

std::string hex_run(util::Rng& rng, std::size_t n) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += kHex[rng.next_below(16)];
  return out;
}

// Identifier spellings a target may carry in place of "<ID>": numbers,
// UUIDs, hex-with-dash stems on both sides of the 8-byte threshold, and
// the placeholder itself.
std::vector<std::string> id_spellings(util::Rng& rng) {
  return {"7",
          "12345",
          hex_run(rng, 8) + "-" + hex_run(rng, 4) + "-" + hex_run(rng, 4) +
              "-" + hex_run(rng, 4) + "-" + hex_run(rng, 12),
          hex_run(rng, 3) + "-" + hex_run(rng, 3),   // 7 bytes: not an id
          hex_run(rng, 3) + "-" + hex_run(rng, 4),   // 8 bytes: an id
          "ABCDEF12-34",
          "<ID>"};
}

std::string instantiate(std::string_view tmpl, const std::string& id,
                        std::string_view id_ext) {
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const auto at = tmpl.find("<ID>", pos);
    if (at == std::string_view::npos) {
      out.append(tmpl.substr(pos));
      return out;
    }
    out.append(tmpl.substr(pos, at - pos));
    out += id;
    out.append(id_ext);
    pos = at + 4;
  }
}

// Spellings of one concrete target: query strings, "//", a trailing "/",
// and extensions of 4, 5 and 6 bytes on the whole target.
std::vector<std::string> target_variants(const std::string& target) {
  std::vector<std::string> out{target,
                               target + "?tenant_id=77",
                               target + "?",
                               target + "/",
                               target + "/?a=b/c",
                               target + ".json",
                               target + ".xml",
                               target + ".jsonx"};
  if (const auto slash = target.find('/', 1);
      slash != std::string::npos) {
    out.push_back(target.substr(0, slash) + "/" + target.substr(slash));
  }
  out.push_back("/" + target);
  return out;
}

TEST(UriTrie, MatchesReferenceOnEveryTempestTemplate) {
  const auto tempest = tempest::TempestCatalog::build();
  const auto& cat = tempest.apis();
  util::Rng rng(2016);
  std::size_t resolved = 0;
  std::size_t rejected = 0;
  std::size_t templates = 0;
  for (const auto& api : cat.all()) {
    if (api.kind != ApiKind::Rest) continue;
    ++templates;
    for (const auto& id : id_spellings(rng)) {
      for (const std::string_view ext : {"", ".json", ".xml", ".jsonx"}) {
        for (const auto& target :
             target_variants(instantiate(api.path, id, ext))) {
          const auto want = reference(cat, api.service, api.method, target);
          ASSERT_EQ(cat.resolve_rest(api.service, api.method, target), want)
              << api.display_name() << " target " << target;
          (want ? resolved : rejected) += 1;
          // The same target under a neighbouring method and service.
          const auto other_method = static_cast<HttpMethod>(
              (static_cast<int>(api.method) + 1) % 6);
          ASSERT_EQ(cat.resolve_rest(api.service, other_method, target),
                    reference(cat, api.service, other_method, target))
              << target;
          ASSERT_EQ(cat.resolve_rest(ServiceKind::Keystone, api.method,
                                     target),
                    reference(cat, ServiceKind::Keystone, api.method, target))
              << target;
        }
      }
    }
  }
  // Not vacuous: the full catalog, with both verdicts well represented.
  EXPECT_GT(templates, 300u);
  EXPECT_GT(resolved, templates * 10);
  EXPECT_GT(rejected, templates * 10);
}

TEST(UriTrie, IdShapedTemplateSegmentNeverMatches) {
  // The reference rewrites "12345" in any target to "<ID>", so a template
  // spelling an id-shaped segment literally is unreachable.
  ApiCatalog cat;
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2/12345");
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2/0a1b2c3d-4e5f/x");
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2/7.json/y");
  for (const auto* target :
       {"/v2/12345", "/v2/0a1b2c3d-4e5f/x", "/v2/7.json/y", "/v2/<ID>",
        "/v2/<ID>/x", "/v2/<ID>.json/y"}) {
    EXPECT_FALSE(reference(cat, ServiceKind::Nova, HttpMethod::Get, target));
    EXPECT_FALSE(cat.resolve_rest(ServiceKind::Nova, HttpMethod::Get, target))
        << target;
  }

  // With the "<ID>" template present, the id-shaped target reaches it.
  const auto id = cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2/<ID>");
  for (const auto* target : {"/v2/12345", "/v2/<ID>", "/v2/99?x=1"}) {
    EXPECT_EQ(reference(cat, ServiceKind::Nova, HttpMethod::Get, target), id);
    EXPECT_EQ(cat.resolve_rest(ServiceKind::Nova, HttpMethod::Get, target), id)
        << target;
  }
}

TEST(UriTrie, MatchesReferenceOnRandomTargets) {
  ApiCatalog cat;
  for (const auto* path :
       {"/", "", "//", "/a", "/a/", "/a/<ID>", "/a/<ID>.json", "/a/<ID>.x.y",
        "/a/<ID>/b", "/a/<ID>x", "/a/.json", "/<ID>", "/a/b.json",
        "/v2.0/<ID>/c?d"}) {
    cat.add_rest(ServiceKind::Glance, HttpMethod::Put, path);
  }
  util::Rng rng(7);
  static constexpr char kChars[] = "ab0123456789f-./?<>ID";
  std::size_t resolved = 0;
  for (int trial = 0; trial < 50'000; ++trial) {
    std::string target;
    const auto len = rng.next_below(14);
    for (std::size_t i = 0; i < len; ++i)
      target += kChars[rng.next_below(sizeof kChars - 1)];
    const auto want =
        reference(cat, ServiceKind::Glance, HttpMethod::Put, target);
    ASSERT_EQ(cat.resolve_rest(ServiceKind::Glance, HttpMethod::Put, target),
              want)
        << target;
    resolved += want.has_value();
  }
  EXPECT_GT(resolved, 500u);
}

TEST(UriTrie, UnregisteredRootResolvesNothing) {
  ApiCatalog cat;
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2.1/servers");
  EXPECT_TRUE(
      cat.resolve_rest(ServiceKind::Nova, HttpMethod::Get, "/v2.1/servers"));
  EXPECT_FALSE(
      cat.resolve_rest(ServiceKind::Nova, HttpMethod::Post, "/v2.1/servers"));
  EXPECT_FALSE(cat.resolve_rest(ServiceKind::Unknown, HttpMethod::Patch,
                                "/v2.1/servers"));
}

TEST(IdClassifier, MatchesReferenceOnEveryShortString) {
  std::string s;
  for (int a = 0; a < 256; ++a) {
    s.assign(1, static_cast<char>(a));
    ASSERT_EQ(is_identifier(s), net::looks_like_identifier(s)) << a;
    for (int b = 0; b < 256; ++b) {
      s.assign({static_cast<char>(a), static_cast<char>(b)});
      ASSERT_EQ(is_identifier(s), net::looks_like_identifier(s))
          << a << "," << b;
    }
  }
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(net::looks_like_identifier(""));
}

TEST(IdClassifier, MatchesReferenceOnRandomSegments) {
  util::Rng rng(11);
  static constexpr char kNear[] = "0123456789abcdefABCDEF-gG.xz";
  std::size_t ids = 0;
  for (int trial = 0; trial < 200'000; ++trial) {
    std::string s;
    const auto len = rng.next_below(40);
    const bool bytes = rng.chance(0.1);
    for (std::size_t i = 0; i < len; ++i) {
      s += bytes ? static_cast<char>(rng.next_below(256))
                 : kNear[rng.next_below(sizeof kNear - 1)];
    }
    // Mostly-hex segments with a dash, so the UUID branch is exercised.
    if (rng.chance(0.3)) s = hex_run(rng, len) + "-" + hex_run(rng, len % 5);
    const bool want = net::looks_like_identifier(s);
    ASSERT_EQ(is_identifier(s), want) << s;
    ids += want;
  }
  EXPECT_GT(ids, 10'000u);
}

}  // namespace
}  // namespace gretel::wire
