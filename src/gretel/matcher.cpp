#include "gretel/matcher.h"

#include <cassert>

namespace gretel::core {

Matcher::Matcher(const wire::ApiCatalog* catalog, Options options)
    : catalog_(catalog), options_(options) {
  assert(catalog_);
}

std::span<const wire::ApiId> Matcher::truncate_at_last(
    std::span<const wire::ApiId> seq, wire::ApiId api) {
  const auto last =
      simd::find_last_eq_u16(symbol_data(seq), seq.size(), api.value());
  return last == simd::npos ? seq : seq.first(last + 1);
}

std::span<const wire::ApiId> Matcher::truncate_at_first(
    std::span<const wire::ApiId> seq, wire::ApiId api) {
  const auto first =
      simd::find_first_eq_u16(symbol_data(seq), seq.size(), api.value());
  return first == simd::npos ? seq : seq.first(first + 1);
}

std::vector<wire::ApiId> Matcher::required_literals(
    std::span<const wire::ApiId> seq) const {
  std::vector<wire::ApiId> out;
  out.reserve(seq.size());
  for (auto api : seq) {
    const auto& desc = catalog_->get(api);
    if (!desc.state_change()) continue;
    if (!options_.include_rpc && desc.kind == wire::ApiKind::Rpc) continue;
    out.push_back(api);
  }
  return out;
}

bool Matcher::matches(std::span<const wire::ApiId> literals,
                      std::span<const wire::ApiId> snapshot) const {
  if (literals.empty()) return false;  // nothing to anchor on
  switch (options_.backend) {
    case MatchBackend::SymbolSubsequence:
      return subsequence_match(literals, snapshot);
    case MatchBackend::StdRegex:
      return regex_match(literals, snapshot);
  }
  return false;
}

bool Matcher::subsequence_match(std::span<const wire::ApiId> literals,
                                std::span<const wire::ApiId> snapshot) {
  // Two-pointer subsequence scan, with the inner "advance to the next
  // occurrence of the current literal" done by the SIMD kernel.
  const auto* symbols = symbol_data(snapshot);
  std::size_t pos = 0;
  for (auto literal : literals) {
    const auto hit = simd::find_first_eq_u16(symbols + pos,
                                             snapshot.size() - pos,
                                             literal.value());
    if (hit == simd::npos) return false;
    pos += hit + 1;
  }
  return true;
}

void Matcher::encode_api(wire::ApiId api, std::string& out) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@#";
  const auto v = api.value();
  out += kAlphabet[(v >> 6) & 63];
  out += kAlphabet[v & 63];
}

bool Matcher::regex_match(std::span<const wire::ApiId> literals,
                          std::span<const wire::ApiId> snapshot) const {
  // Snapshot as text, two regex-safe characters per API.
  std::string text;
  text.reserve(snapshot.size() * 2);
  for (auto api : snapshot) encode_api(api, text);

  // Pattern: literals joined by (..)*? so skipped symbols stay pair-aligned;
  // anchoring at the start keeps the alignment absolute (a match beginning
  // at an odd text offset would straddle two encoded symbols).
  std::string pattern;
  pattern.reserve(literals.size() * 8 + 8);
  pattern += "^(..)*?";
  for (std::size_t i = 0; i < literals.size(); ++i) {
    if (i) pattern += "(..)*?";
    encode_api(literals[i], pattern);
  }

  // The compiled regex depends only on the literal sequence; memoize it.
  // unordered_map element references are stable, so the search can run on
  // the cached entry after the lock is dropped (regex_search on a const
  // std::regex is thread-safe).
  const std::regex* re = nullptr;
  {
    std::lock_guard<std::mutex> lock(regex_mutex_);
    const auto it = regex_cache_.find(pattern);
    if (it != regex_cache_.end()) {
      ++regex_cache_hits_;
      re = &it->second;
    } else {
      ++regex_cache_misses_;
      re = &regex_cache_.emplace(pattern, std::regex(pattern)).first->second;
    }
  }
  return std::regex_search(text, *re);
}

}  // namespace gretel::core
