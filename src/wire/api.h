// The OpenStack API surface as GRETEL sees it on the wire.
//
// GRETEL's key observation (§5) is that OpenStack components interact through
// a *finite* set of REST and RPC interfaces.  ApiCatalog is the registry of
// those interfaces; every captured message resolves to one ApiId, and every
// ApiId maps to one fingerprint symbol (§6 "Unicode encoding").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "wire/uri_trie.h"

namespace gretel::wire {

// OpenStack component services plus the infrastructure dependencies that
// participate in control-plane traffic (Fig. 1 of the paper).
enum class ServiceKind : std::uint8_t {
  Horizon,
  Keystone,
  Nova,         // controller
  NovaCompute,  // nova-compute agents on compute nodes
  Neutron,
  NeutronAgent,  // e.g. neutron-plugin-linuxbridge-agent
  Glance,
  Cinder,
  Swift,
  RabbitMq,
  MySql,
  Ntp,
  Unknown,
};

std::string_view to_string(ServiceKind s);
// Inverse of to_string(ServiceKind); Unknown for any other token.  One
// table probe keyed by the token's length and first byte, then one compare.
ServiceKind service_from_string(std::string_view token);

enum class HttpMethod : std::uint8_t { Get, Post, Put, Delete, Head, Patch };

std::string_view to_string(HttpMethod m);
std::optional<HttpMethod> parse_http_method(std::string_view token);

enum class ApiKind : std::uint8_t { Rest, Rpc };

struct ApiIdTag {};
using ApiId = util::StrongId<ApiIdTag, std::uint16_t>;

// One REST endpoint (method + URI template) or one RPC method.
struct ApiDescriptor {
  ApiId id;
  ApiKind kind = ApiKind::Rest;
  ServiceKind service = ServiceKind::Unknown;  // service exposing the API
  HttpMethod method = HttpMethod::Get;         // REST only
  std::string path;                            // REST URI template / RPC topic
  std::string rpc_method;                      // RPC only (oslo method name)

  // State-change APIs anchor fingerprint matching (§5.3.1): POST/PUT/DELETE/
  // PATCH REST calls and all RPC invocations; GET/HEAD are optional symbols.
  bool state_change() const {
    if (kind == ApiKind::Rpc) return true;
    return method == HttpMethod::Post || method == HttpMethod::Put ||
           method == HttpMethod::Delete || method == HttpMethod::Patch;
  }

  // Human-readable name, e.g. "POST nova /servers" or "RPC nova build_and_run_instance".
  std::string display_name() const;
};

// Registry of every known API.  Append-only; ids are dense indices, which
// lets downstream tables (symbols, per-API latency series) be flat vectors.
//
// Resolution is on the per-message hot path.  A captured request target
// resolves through resolve_rest, one walk over the segment trie that
// add_rest extends (wire/uri_trie.h), so a tap sees APIs added after it was
// built.  The exact-key tables use heterogeneous (transparent) hashing:
// find_rest/find_rpc probe with a string_view-keyed struct and never
// materialize a key string.
class ApiCatalog {
 public:
  ApiId add_rest(ServiceKind service, HttpMethod method, std::string path);
  ApiId add_rpc(ServiceKind service, std::string topic,
                std::string rpc_method);

  const ApiDescriptor& get(ApiId id) const { return apis_[id.value()]; }
  std::size_t size() const { return apis_.size(); }
  const std::vector<ApiDescriptor>& all() const { return apis_; }

  // Wire-side resolution: maps a parsed message back to its ApiId.
  // Allocation-free — `path` / `rpc_method` may view into a capture buffer.
  std::optional<ApiId> find_rest(ServiceKind service, HttpMethod method,
                                 std::string_view path) const;
  std::optional<ApiId> find_rpc(ServiceKind service,
                                std::string_view rpc_method) const;

  // Resolves a concrete request target (identifiers, query string and
  // all) to its template's ApiId: exactly what
  // find_rest(service, method, net::normalize_uri(target)) resolves, in one
  // allocation-free walk.
  std::optional<ApiId> resolve_rest(ServiceKind service, HttpMethod method,
                                    std::string_view target) const;

  // Counts split by kind, optionally restricted to one service.
  std::size_t count(ApiKind kind) const;
  std::size_t count(ApiKind kind, ServiceKind service) const;

 private:
  // Probe key: views the path/method, owning nothing.
  struct RestKeyView {
    ServiceKind service;
    HttpMethod method;
    std::string_view path;
  };
  struct RpcKeyView {
    ServiceKind service;
    std::string_view method;
  };
  // Owning keys (the interned template / method strings), implicitly
  // comparable with the views through the transparent hash/eq below.
  struct RestKey {
    ServiceKind service;
    HttpMethod method;
    std::string path;
    operator RestKeyView() const { return {service, method, path}; }
  };
  struct RpcKey {
    ServiceKind service;
    std::string method;
    operator RpcKeyView() const { return {service, method}; }
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const RestKeyView& k) const;
    std::size_t operator()(const RpcKeyView& k) const;
    std::size_t operator()(const RestKey& k) const {
      return (*this)(RestKeyView(k));
    }
    std::size_t operator()(const RpcKey& k) const {
      return (*this)(RpcKeyView(k));
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const RestKeyView& a, const RestKeyView& b) const {
      return a.service == b.service && a.method == b.method &&
             a.path == b.path;
    }
    bool operator()(const RpcKeyView& a, const RpcKeyView& b) const {
      return a.service == b.service && a.method == b.method;
    }
  };

  static std::size_t trie_root(ServiceKind service, HttpMethod method) {
    return static_cast<std::size_t>(service) *
               (static_cast<std::size_t>(HttpMethod::Patch) + 1) +
           static_cast<std::size_t>(method);
  }

  std::vector<ApiDescriptor> apis_;
  std::unordered_map<RestKey, ApiId, KeyHash, KeyEq> by_rest_;
  UriTrie rest_trie_;  // one root per (service, method)
  std::unordered_map<RpcKey, ApiId, KeyHash, KeyEq> by_rpc_;
};

}  // namespace gretel::wire
