#include "wire/api.h"

#include <cassert>

#include "util/hash.h"

namespace gretel::wire {

std::string_view to_string(ServiceKind s) {
  switch (s) {
    case ServiceKind::Horizon:
      return "horizon";
    case ServiceKind::Keystone:
      return "keystone";
    case ServiceKind::Nova:
      return "nova";
    case ServiceKind::NovaCompute:
      return "nova-compute";
    case ServiceKind::Neutron:
      return "neutron";
    case ServiceKind::NeutronAgent:
      return "neutron-agent";
    case ServiceKind::Glance:
      return "glance";
    case ServiceKind::Cinder:
      return "cinder";
    case ServiceKind::Swift:
      return "swift";
    case ServiceKind::RabbitMq:
      return "rabbitmq";
    case ServiceKind::MySql:
      return "mysql";
    case ServiceKind::Ntp:
      return "ntp";
    case ServiceKind::Unknown:
      return "unknown";
  }
  return "?";
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
