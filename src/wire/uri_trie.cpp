#include "wire/uri_trie.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/swar.h"

namespace gretel::wire {

namespace {

constexpr std::string_view kIdLabel = "<ID>";

// Per-byte classes: the id test's three, and the bytes that end a segment.
constexpr std::uint8_t kDigit = 1;    // '0'-'9'
constexpr std::uint8_t kHexDash = 2;  // hex digit or '-'
constexpr std::uint8_t kDash = 4;     // '-'
constexpr std::uint8_t kEnd = 8;      // '/' or '?'

constexpr std::array<std::uint8_t, 256> make_classes() {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kHexDash;
  for (int c = 'a'; c <= 'f'; ++c) t[c] = kHexDash;
  for (int c = 'A'; c <= 'F'; ++c) t[c] = kHexDash;
  t['-'] = kHexDash | kDash;
  t['/'] = kEnd;
  t['?'] = kEnd;
  return t;
}
constexpr auto kClasses = make_classes();

unsigned class_of(char c) { return kClasses[static_cast<unsigned char>(c)]; }

// The id decision over a stem's AND and OR of byte classes: all digits, or
// at least 8 hex digits and dashes with a dash among them.
bool identifier_classes(unsigned all, unsigned any, std::size_t size) {
  const bool digits = (all & kDigit) != 0;
  const bool uuid_like =
      ((all & kHexDash) != 0) & ((any & kDash) != 0) & (size >= 8);
  return size != 0 && (digits || uuid_like);
}

// Up to 8 bytes of `s` from `pos`, zero-padded, byte k in bits [8k, 8k+8).
std::uint64_t head_at(std::string_view s, std::size_t pos) {
  if constexpr (std::endian::native == std::endian::little) {
    if (pos + 8 <= s.size()) return util::swar::load(s.data() + pos);
  }
  std::uint64_t head = 0;
  const auto n = std::min<std::size_t>(s.size() - pos, 8);
  for (std::size_t k = 0; k < n; ++k)
    head |= std::uint64_t{static_cast<unsigned char>(s[pos + k])} << (8 * k);
  return head;
}

std::uint64_t low_bytes_mask(std::size_t n) {
  return n >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * n)) - 1;
}

// A segment ends at a '/', at the query string or at the end of the target.
bool ends_segment(std::string_view target, std::size_t at) {
  return at == target.size() || (class_of(target[at]) & kEnd) != 0;
}

struct SegmentParts {
  std::string_view stem;
  std::string_view ext;  // empty when the segment has none
};

// A segment's stem and extension by the rule in the header.
SegmentParts split_extension(std::string_view segment) {
  // The last dot counts only within the last 5 bytes, so look no further.
  const std::size_t from = segment.size() > 5 ? segment.size() - 5 : 1;
  for (std::size_t dot = segment.size(); dot-- > from;) {
    if (segment[dot] == '.')
      return {segment.substr(0, dot), segment.substr(dot)};
  }
  return {segment, {}};
}

}  // namespace

bool is_identifier(std::string_view stem) {
  unsigned all = kDigit | kHexDash;
  unsigned any = 0;
  for (const char c : stem) {
    all &= class_of(c);
    any |= class_of(c);
  }
  return identifier_classes(all, any, stem.size());
}

UriTrie::Edge UriTrie::make_edge(std::string_view label,
                                std::uint32_t child) {
  return {head_at(label, 0), low_bytes_mask(label.size()),
          static_cast<std::uint32_t>(label.size()), child,
          std::string(label)};
}

const UriTrie::Edge* UriTrie::find_edge(const std::vector<Edge>& edges,
                                        std::string_view label) {
  for (const auto& e : edges) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

const UriTrie::Edge* UriTrie::find_literal(const std::vector<Edge>& edges,
                                           std::string_view target,
                                           std::size_t pos) {
  const auto head = head_at(target, pos);
  for (const auto& e : edges) {
    if ((head & e.mask) != e.head) continue;
    const std::size_t end = pos + e.size;
    if (end > target.size() || !ends_segment(target, end)) continue;
    if (e.size <= 8 || std::memcmp(e.label.data() + 8, target.data() + pos + 8,
                                   e.size - 8) == 0)
      return &e;
  }
  return nullptr;
}

std::uint32_t UriTrie::child(std::uint32_t node, std::string_view segment) {
  if (const auto* e = find_edge(nodes_[node].literals, segment))
    return e->child;
  const auto next = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node].literals.push_back(make_edge(segment, next));
  // "<ID>" and "<ID>.json" are literals too: a target may spell them out.
  if (segment.starts_with(kIdLabel)) {
    nodes_[node].ids.push_back(
        make_edge(segment.substr(kIdLabel.size()), next));
  }
  return next;
}

void UriTrie::add(std::size_t root, std::string_view path,
                  std::uint16_t value) {
  // A segment whose stem is an identifier normalizes to "<ID>", so the
  // template spelling it literally is unreachable.
  for (std::size_t pos = 0;;) {
    const auto slash = path.find('/', pos);
    const auto seg = path.substr(pos, slash - pos);
    if (is_identifier(split_extension(seg).stem)) return;
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }

  if (nodes_.empty()) nodes_.emplace_back();  // placeholder node 0
  if (roots_.size() <= root) roots_.resize(root + 1, 0);
  if (roots_[root] == 0) {
    roots_[root] = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  std::uint32_t node = roots_[root];
  for (std::size_t pos = 0;;) {
    const auto slash = path.find('/', pos);
    node = child(node, path.substr(pos, slash - pos));
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  nodes_[node].value = value;
}

std::optional<std::uint16_t> UriTrie::find(std::size_t root,
                                           std::string_view target) const {
  if (root >= roots_.size() || roots_[root] == 0) return std::nullopt;
  const Node* node = &nodes_[roots_[root]];
  for (std::size_t pos = 0;;) {
    std::size_t end = pos;
    const Edge* edge = find_literal(node->literals, target, pos);
    if (edge) {
      end += edge->size;
    } else {
      // One pass to the segment's end classifies its bytes; the classes
      // as of each dot are kept in case the extension starts there.
      unsigned all = kDigit | kHexDash;
      unsigned any = 0;
      unsigned stem_all = all;
      unsigned stem_any = any;
      for (; end < target.size(); ++end) {
        const unsigned k = class_of(target[end]);
        if (k & kEnd) break;
        if (target[end] == '.') {
          stem_all = all;
          stem_any = any;
        }
        all &= k;
        any |= k;
      }
      const auto parts = split_extension(target.substr(pos, end - pos));
      if (!parts.ext.empty()) {
        all = stem_all;
        any = stem_any;
      }
      if (!identifier_classes(all, any, parts.stem.size())) return std::nullopt;
      edge = find_edge(node->ids, parts.ext);
      if (!edge) return std::nullopt;
    }
    node = &nodes_[edge->child];
    if (end == target.size() || target[end] == '?') break;
    pos = end + 1;
  }
  return node->value;
}

}  // namespace gretel::wire
