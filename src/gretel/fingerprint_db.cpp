#include "gretel/fingerprint_db.h"

#include <algorithm>
#include <span>
#include <utility>

namespace gretel::core {

FingerprintDb::Index FingerprintDb::add(Fingerprint fp) {
  const auto index = static_cast<Index>(fingerprints_.size());
  max_size_ = std::max(max_size_, fp.sequence.size());

  // Deduplicated inverted index (a fingerprint may repeat an API).
  std::vector<wire::ApiId> seen;
  for (auto api : fp.sequence) {
    if (std::find(seen.begin(), seen.end(), api) != seen.end()) continue;
    seen.push_back(api);
    by_api_[api].push_back(index);
  }
  fingerprints_.push_back(std::move(fp));
  return index;
}

const std::vector<FingerprintDb::Index>& FingerprintDb::containing(
    wire::ApiId api) const {
  const auto it = by_api_.find(api);
  return it == by_api_.end() ? empty_ : it->second;
}

VariantCache::VariantCache(const FingerprintDb& db, const Matcher& matcher) {
  // Fingerprints in ascending index order, so each api's list follows
  // FingerprintDb::containing.
  for (FingerprintDb::Index idx = 0; idx < db.size(); ++idx) {
    const auto& fp = db.get(idx);
    const auto full_literals = matcher.required_literals(fp.sequence);

    std::vector<wire::ApiId> seen;
    for (auto api : fp.sequence) {
      if (std::find(seen.begin(), seen.end(), api) != seen.end()) continue;
      seen.push_back(api);

      Candidate c;
      c.index = idx;
      // Truncated prefixes at each occurrence of `api`, last occurrence
      // first; lengths are non-increasing, so dropping consecutive
      // duplicates keeps exactly the distinct lengths.  Empty prefixes are
      // dropped.
      std::size_t prev_len = static_cast<std::size_t>(-1);
      for (std::size_t pos = fp.sequence.size(); pos-- > 0;) {
        if (fp.sequence[pos] != api) continue;
        auto literals = matcher.required_literals(
            std::span<const wire::ApiId>(fp.sequence.data(), pos + 1));
        if (literals.size() == prev_len) continue;
        prev_len = literals.size();
        if (!literals.empty()) c.truncated.push_back(std::move(literals));
      }
      // If nothing anchors (e.g. the offending API is the leading read-only
      // call), fall back to the offending API itself.
      if (c.truncated.empty()) c.truncated.push_back({api});
      c.full = full_literals.empty() ? std::vector<wire::ApiId>{api}
                                     : full_literals;

      auto& list = by_api_[api];
      if (list.empty()) list.reserve(db.containing(api).size());
      list.push_back(std::move(c));
    }
  }
}

std::span<const VariantCache::Candidate> VariantCache::candidates(
    wire::ApiId api) const {
  const auto it = by_api_.find(api);
  if (it == by_api_.end()) return {};
  return it->second;
}

}  // namespace gretel::core
