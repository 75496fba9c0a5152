#include "gretel/matcher.h"

#include <cassert>

namespace gretel::core {

Matcher::Matcher(const wire::ApiCatalog* catalog, bool include_rpc)
    : catalog_(catalog), include_rpc_(include_rpc) {
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
    if (!include_rpc_ && desc.kind == wire::ApiKind::Rpc) continue;
    out.push_back(api);
  }
  return out;
}

bool Matcher::matches(std::span<const wire::ApiId> literals,
                      std::span<const wire::ApiId> snapshot) {
  if (literals.empty()) return false;  // nothing to anchor on
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

}  // namespace gretel::core
