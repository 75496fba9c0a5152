#include "hansel/hansel.h"

#include <algorithm>

namespace gretel::hansel {

std::size_t Chain::distinct_instances() const {
  std::vector<std::uint32_t> ids;
  for (const auto& ev : events) {
    if (ev.truth_instance.valid() && !ev.truth_noise)
      ids.push_back(ev.truth_instance.value());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids.size();
}

Hansel::Hansel() : Hansel(Options{}) {}

Hansel::Hansel(Options options) : options_(options) {}

std::uint32_t Hansel::find(std::uint32_t g) {
  while (parent_[g] != g) {
    parent_[g] = parent_[parent_[g]];  // path halving
    g = parent_[g];
  }
  return g;
}

void Hansel::unite(std::uint32_t a, std::uint32_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  ++stats_.unions;
  // Merge the smaller group's events into the larger.
  if (groups_[a].events.size() < groups_[b].events.size()) std::swap(a, b);
  auto& ga = groups_[a];
  auto& gb = groups_[b];
  ga.events.insert(ga.events.end(), gb.events.begin(), gb.events.end());
  ga.has_error = ga.has_error || gb.has_error;
  gb.events.clear();
  parent_[b] = a;
}

std::vector<std::uint32_t> Hansel::extract_identifiers(
    std::string_view payload) {
  std::vector<std::uint32_t> out;
  std::size_t i = 0;
  const auto n = payload.size();
  while (i < n) {
    const char c = payload[i];
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                     (c >= 'A' && c <= 'F');
    if (!hex) {
      ++i;
      continue;
    }
    // Token of hex digits and dashes.
    std::size_t j = i;
    bool digits_only = true;
    bool has_dash = false;
    while (j < n) {
      const char t = payload[j];
      const bool th = (t >= '0' && t <= '9') || (t >= 'a' && t <= 'f') ||
                      (t >= 'A' && t <= 'F');
      if (t == '-') {
        has_dash = true;
      } else if (!th) {
        break;
      }
      if (t < '0' || t > '9') digits_only = digits_only && t == '-';
      ++j;
    }
    const auto len = j - i;
    if (digits_only && !has_dash && len >= 4 && len <= 10) {
      std::uint32_t v = 0;
      for (std::size_t k = i; k < j; ++k)
        v = v * 10 + static_cast<std::uint32_t>(payload[k] - '0');
      out.push_back(v);
    } else if (len >= 8 && has_dash) {
      // UUID-ish: FNV-1a hash of the token.
      std::uint32_t h = 2166136261u;
      for (std::size_t k = i; k < j; ++k) {
        h ^= static_cast<std::uint8_t>(payload[k]);
        h *= 16777619u;
      }
      out.push_back(h);
    }
    i = j;
  }
  return out;
}

void Hansel::on_message(const net::WireRecord& record,
                        const wire::Event& event) {
  std::vector<std::uint32_t> identifiers = record.identifiers;
  const auto extracted = extract_identifiers(record.bytes);
  identifiers.insert(identifiers.end(), extracted.begin(), extracted.end());
  on_event(event, identifiers);
}

void Hansel::on_event(const wire::Event& event,
                      std::span<const std::uint32_t> identifiers) {
  ++stats_.events;

  if (!bucket_open_) {
    bucket_open_ = true;
    bucket_end_ = event.ts + options_.bucket;
  } else if (event.ts >= bucket_end_) {
    close_bucket(bucket_end_);
    bucket_end_ = event.ts + options_.bucket;
  }

  // New group holding just this message.
  const auto g = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back({{event}, event.is_error()});
  parent_.push_back(g);

  // Link through every payload identifier (the per-message stitching cost).
  for (const auto ident : identifiers) {
    const auto [it, inserted] = ident_group_.try_emplace(ident, g);
    if (!inserted) {
      unite(g, it->second);
      it->second = find(g);
    }
  }
}

void Hansel::close_bucket(util::SimTime now) {
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    if (parent_[g] != g || !groups_[g].has_error) continue;
    ++stats_.error_groups;
    Chain chain;
    chain.events = std::move(groups_[g].events);
    std::sort(chain.events.begin(), chain.events.end(),
              [](const wire::Event& a, const wire::Event& b) {
                return a.ts < b.ts;
              });
    chain.reported_at = now;
    chains_.push_back(std::move(chain));
  }
  groups_.clear();
  parent_.clear();
  ident_group_.clear();
}

void Hansel::flush() {
  if (bucket_open_) close_bucket(bucket_end_);
  bucket_open_ = false;
}

}  // namespace gretel::hansel
