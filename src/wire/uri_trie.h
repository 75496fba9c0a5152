// Segment tries over REST URI templates.
//
// The capture tap resolves a request target such as
// "/v2.1/servers/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9/action" to the
// template "/v2.1/servers/<ID>/action".  UriTrie does that in one walk over
// the raw target, one node per template prefix.  Each target segment first
// tries the node's literal edges; only when none matches is the segment's
// stem classified (is_identifier()'s test, fused with the scan for the
// segment's end), and an identifier follows the node's "<ID>"+extension
// edge.  ApiCatalog keeps one trie per (service, method), each named by a
// small root index.
//
// The contract is net::normalize_uri followed by an exact lookup of the
// normalized path: find() resolves a target to a template exactly when the
// normalized target equals that template.  Hence:
//  * the query string is ignored, and empty segments ("//", a trailing
//    "/") are segments like any other;
//  * an extension is the tail from a segment's last '.' when that dot is
//    not the first byte and the tail is at most 5 bytes (".json", ".xml");
//  * a template segment the normalization would itself rewrite (an
//    id-shaped literal such as "12345") can never match, so a template
//    holding one is not added.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gretel::wire {

// The id test for one URI segment stem: a non-empty run of ASCII digits,
// or a token of at least 8 hex digits and dashes holding a dash (UUIDs).
// One table lookup and two bit operations per byte, no data-dependent
// branch: the stems are random hex, which defeats a branchy classifier.
bool is_identifier(std::string_view stem);

class UriTrie {
 public:
  // Registers template `path` under trie `root`, resolving to `value`.  A
  // path is added at most once per root (ApiCatalog deduplicates).
  void add(std::size_t root, std::string_view path, std::uint16_t value);

  // Resolves a concrete request target; allocation-free.
  std::optional<std::uint16_t> find(std::size_t root,
                                    std::string_view target) const;

 private:
  struct Edge {
    // The label's first 8 bytes (zero-padded) under `mask`, its low
    // min(size, 8) bytes: one compare against the target's next 8 bytes
    // decides most literal edges without finding the segment's end.
    std::uint64_t head = 0;
    std::uint64_t mask = 0;
    std::uint32_t size = 0;
    std::uint32_t child = 0;
    std::string label;  // literal segment, or the extension after "<ID>"
  };
  struct Node {
    std::vector<Edge> literals;
    std::vector<Edge> ids;
    std::optional<std::uint16_t> value;
  };

  static Edge make_edge(std::string_view label, std::uint32_t child);
  static const Edge* find_edge(const std::vector<Edge>& edges,
                               std::string_view label);
  // The literal edge equal to the segment of `target` starting at `pos`.
  static const Edge* find_literal(const std::vector<Edge>& edges,
                                  std::string_view target, std::size_t pos);
  // The child under the literal edge `segment`, created on first use.
  std::uint32_t child(std::uint32_t node, std::string_view segment);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;  // node per root; 0 = no template yet
};

}  // namespace gretel::wire
