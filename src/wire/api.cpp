#include "wire/api.h"

#include <array>
#include <cassert>

#include "util/hash.h"

namespace gretel::wire {

namespace {

constexpr std::size_t kServiceKinds =
    static_cast<std::size_t>(ServiceKind::Unknown) + 1;

// Indexed by ServiceKind.
constexpr std::array<std::string_view, kServiceKinds> kServiceNames{
    "horizon", "keystone", "nova",     "nova-compute", "neutron",
    "neutron-agent", "glance", "cinder", "swift", "rabbitmq",
    "mysql", "ntp", "unknown"};

// service_from_string's probe key: the length (every name is shorter than
// 16 bytes) and the low three bits of the first byte, which tell apart the
// names of equal length.
constexpr std::size_t service_key(std::string_view name) {
  return (name.size() << 3) | (static_cast<unsigned char>(name[0]) & 7u);
}

constexpr std::array<std::uint8_t, 128> make_service_table() {
  std::array<std::uint8_t, 128> t{};
  for (auto& slot : t) slot = static_cast<std::uint8_t>(ServiceKind::Unknown);
  for (std::size_t s = 0; s < kServiceKinds; ++s)
    t[service_key(kServiceNames[s])] = static_cast<std::uint8_t>(s);
  return t;
}
constexpr auto kServiceTable = make_service_table();

constexpr bool service_keys_distinct() {
  for (std::size_t a = 0; a < kServiceKinds; ++a) {
    if (kServiceNames[a].size() >= 16) return false;
    for (std::size_t b = 0; b < a; ++b) {
      if (service_key(kServiceNames[a]) == service_key(kServiceNames[b]))
        return false;
    }
  }
  return true;
}
static_assert(service_keys_distinct(),
              "service names need distinct (length, first byte) keys");

}  // namespace

std::string_view to_string(ServiceKind s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kServiceKinds ? kServiceNames[i] : "?";
}

ServiceKind service_from_string(std::string_view token) {
  if (token.empty() || token.size() >= 16) return ServiceKind::Unknown;
  const auto s = static_cast<ServiceKind>(kServiceTable[service_key(token)]);
  return kServiceNames[static_cast<std::size_t>(s)] == token
             ? s
             : ServiceKind::Unknown;
}

std::string_view to_string(HttpMethod m) {
  switch (m) {
    case HttpMethod::Get:
      return "GET";
    case HttpMethod::Post:
      return "POST";
    case HttpMethod::Put:
      return "PUT";
    case HttpMethod::Delete:
      return "DELETE";
    case HttpMethod::Head:
      return "HEAD";
    case HttpMethod::Patch:
      return "PATCH";
  }
  return "?";
}

std::optional<HttpMethod> parse_http_method(std::string_view token) {
  if (token == "GET") return HttpMethod::Get;
  if (token == "POST") return HttpMethod::Post;
  if (token == "PUT") return HttpMethod::Put;
  if (token == "DELETE") return HttpMethod::Delete;
  if (token == "HEAD") return HttpMethod::Head;
  if (token == "PATCH") return HttpMethod::Patch;
  return std::nullopt;
}

std::string ApiDescriptor::display_name() const {
  std::string out;
  if (kind == ApiKind::Rest) {
    out += to_string(method);
    out += ' ';
    out += to_string(service);
    out += ' ';
    out += path;
  } else {
    out += "RPC ";
    out += to_string(service);
    out += ' ';
    out += rpc_method;
  }
  return out;
}

// FNV-1a over the discriminating bytes; string_view and string keys hash
// identically, which is what makes the transparent probe sound.
std::size_t ApiCatalog::KeyHash::operator()(const RestKeyView& k) const {
  auto h = util::fnv1a64_step(util::kFnv1a64Offset,
                              static_cast<std::uint8_t>(k.service));
  h = util::fnv1a64_step(h, static_cast<std::uint8_t>(k.method));
  return static_cast<std::size_t>(util::fnv1a64(k.path, h));
}

std::size_t ApiCatalog::KeyHash::operator()(const RpcKeyView& k) const {
  const auto h = util::fnv1a64_step(util::kFnv1a64Offset,
                                    static_cast<std::uint8_t>(k.service));
  return static_cast<std::size_t>(util::fnv1a64(k.method, h));
}

ApiId ApiCatalog::add_rest(ServiceKind service, HttpMethod method,
                           std::string path) {
  if (auto it = by_rest_.find(RestKeyView{service, method, path});
      it != by_rest_.end()) {
    return it->second;
  }
  ApiId id(static_cast<std::uint16_t>(apis_.size()));
  ApiDescriptor d;
  d.id = id;
  d.kind = ApiKind::Rest;
  d.service = service;
  d.method = method;
  d.path = path;
  apis_.push_back(std::move(d));
  rest_trie_.add(trie_root(service, method), path, id.value());
  by_rest_.emplace(RestKey{service, method, std::move(path)}, id);
  return id;
}

ApiId ApiCatalog::add_rpc(ServiceKind service, std::string topic,
                          std::string rpc_method) {
  if (auto it = by_rpc_.find(RpcKeyView{service, rpc_method});
      it != by_rpc_.end()) {
    return it->second;
  }
  ApiId id(static_cast<std::uint16_t>(apis_.size()));
  ApiDescriptor d;
  d.id = id;
  d.kind = ApiKind::Rpc;
  d.service = service;
  d.path = std::move(topic);
  d.rpc_method = rpc_method;
  apis_.push_back(std::move(d));
  by_rpc_.emplace(RpcKey{service, std::move(rpc_method)}, id);
  return id;
}

std::optional<ApiId> ApiCatalog::find_rest(ServiceKind service,
                                           HttpMethod method,
                                           std::string_view path) const {
  const auto it = by_rest_.find(RestKeyView{service, method, path});
  if (it == by_rest_.end()) return std::nullopt;
  return it->second;
}

std::optional<ApiId> ApiCatalog::resolve_rest(ServiceKind service,
                                              HttpMethod method,
                                              std::string_view target) const {
  const auto value = rest_trie_.find(trie_root(service, method), target);
  if (!value) return std::nullopt;
  return ApiId(*value);
}

std::optional<ApiId> ApiCatalog::find_rpc(ServiceKind service,
                                          std::string_view rpc_method) const {
  const auto it = by_rpc_.find(RpcKeyView{service, rpc_method});
  if (it == by_rpc_.end()) return std::nullopt;
  return it->second;
}

std::size_t ApiCatalog::count(ApiKind kind) const {
  std::size_t n = 0;
  for (const auto& a : apis_) n += (a.kind == kind) ? 1 : 0;
  return n;
}

std::size_t ApiCatalog::count(ApiKind kind, ServiceKind service) const {
  std::size_t n = 0;
  for (const auto& a : apis_) {
    n += (a.kind == kind && a.service == service) ? 1 : 0;
  }
  return n;
}

}  // namespace gretel::wire
