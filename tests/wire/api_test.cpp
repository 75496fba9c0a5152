#include "wire/api.h"

#include <gtest/gtest.h>

namespace gretel::wire {
namespace {

TEST(ApiCatalog, AddRestAssignsDenseIds) {
  ApiCatalog cat;
  const auto a = cat.add_rest(ServiceKind::Nova, HttpMethod::Post,
                              "/v2.1/servers");
  const auto b = cat.add_rest(ServiceKind::Nova, HttpMethod::Get,
                              "/v2.1/servers/<ID>");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(cat.size(), 2u);
}

TEST(ApiCatalog, AddRestDeduplicates) {
  ApiCatalog cat;
  const auto a = cat.add_rest(ServiceKind::Nova, HttpMethod::Post, "/x");
  const auto b = cat.add_rest(ServiceKind::Nova, HttpMethod::Post, "/x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(cat.size(), 1u);
}

TEST(ApiCatalog, SamePathDifferentMethodOrService) {
  ApiCatalog cat;
  const auto a = cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/x");
  const auto b = cat.add_rest(ServiceKind::Nova, HttpMethod::Post, "/x");
  const auto c = cat.add_rest(ServiceKind::Glance, HttpMethod::Get, "/x");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cat.size(), 3u);
}

TEST(ApiCatalog, FindRest) {
  ApiCatalog cat;
  const auto id = cat.add_rest(ServiceKind::Neutron, HttpMethod::Get,
                               "/v2.0/ports.json");
  EXPECT_EQ(cat.find_rest(ServiceKind::Neutron, HttpMethod::Get,
                          "/v2.0/ports.json"),
            id);
  EXPECT_FALSE(cat.find_rest(ServiceKind::Neutron, HttpMethod::Post,
                             "/v2.0/ports.json")
                   .has_value());
  EXPECT_FALSE(
      cat.find_rest(ServiceKind::Nova, HttpMethod::Get, "/v2.0/ports.json")
          .has_value());
}

TEST(ApiCatalog, AddAndFindRpc) {
  ApiCatalog cat;
  const auto id = cat.add_rpc(ServiceKind::NovaCompute, "nova-compute",
                              "build_and_run_instance");
  EXPECT_EQ(cat.find_rpc(ServiceKind::NovaCompute, "build_and_run_instance"),
            id);
  EXPECT_FALSE(
      cat.find_rpc(ServiceKind::Nova, "build_and_run_instance").has_value());
  EXPECT_EQ(cat.get(id).kind, ApiKind::Rpc);
  EXPECT_EQ(cat.get(id).rpc_method, "build_and_run_instance");
}

TEST(ApiCatalog, CountByKindAndService) {
  ApiCatalog cat;
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/a");
  cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/b");
  cat.add_rest(ServiceKind::Glance, HttpMethod::Get, "/c");
  cat.add_rpc(ServiceKind::Neutron, "neutron", "m");
  EXPECT_EQ(cat.count(ApiKind::Rest), 3u);
  EXPECT_EQ(cat.count(ApiKind::Rpc), 1u);
  EXPECT_EQ(cat.count(ApiKind::Rest, ServiceKind::Nova), 2u);
  EXPECT_EQ(cat.count(ApiKind::Rpc, ServiceKind::Neutron), 1u);
}

TEST(ApiDescriptor, StateChangeClassification) {
  ApiCatalog cat;
  const auto get = cat.add_rest(ServiceKind::Nova, HttpMethod::Get, "/g");
  const auto post = cat.add_rest(ServiceKind::Nova, HttpMethod::Post, "/p");
  const auto put = cat.add_rest(ServiceKind::Nova, HttpMethod::Put, "/u");
  const auto del = cat.add_rest(ServiceKind::Nova, HttpMethod::Delete, "/d");
  const auto head = cat.add_rest(ServiceKind::Nova, HttpMethod::Head, "/h");
  const auto rpc = cat.add_rpc(ServiceKind::Nova, "nova", "noop");

  EXPECT_FALSE(cat.get(get).state_change());
  EXPECT_FALSE(cat.get(head).state_change());
  EXPECT_TRUE(cat.get(post).state_change());
  EXPECT_TRUE(cat.get(put).state_change());
  EXPECT_TRUE(cat.get(del).state_change());
  // §5.3.1: RPCs count as state-change operations for matching.
  EXPECT_TRUE(cat.get(rpc).state_change());
}

TEST(ApiDescriptor, DisplayName) {
  ApiCatalog cat;
  const auto rest = cat.add_rest(ServiceKind::Neutron, HttpMethod::Post,
                                 "/v2.0/ports.json");
  const auto rpc = cat.add_rpc(ServiceKind::Neutron, "neutron",
                               "get_devices_details_list");
  EXPECT_EQ(cat.get(rest).display_name(), "POST neutron /v2.0/ports.json");
  EXPECT_EQ(cat.get(rpc).display_name(),
            "RPC neutron get_devices_details_list");
}

TEST(HttpMethodParse, RoundTrip) {
  for (auto m : {HttpMethod::Get, HttpMethod::Post, HttpMethod::Put,
                 HttpMethod::Delete, HttpMethod::Head, HttpMethod::Patch}) {
    EXPECT_EQ(parse_http_method(to_string(m)), m);
  }
  EXPECT_FALSE(parse_http_method("FETCH").has_value());
  EXPECT_FALSE(parse_http_method("get").has_value());
}

TEST(ServiceFromString, InvertsToString) {
  for (int i = 0; i <= static_cast<int>(ServiceKind::Unknown); ++i) {
    const auto s = static_cast<ServiceKind>(i);
    EXPECT_EQ(service_from_string(to_string(s)), s) << to_string(s);
  }
}

TEST(ServiceFromString, OtherTokensAreUnknown) {
  // Same length and first byte as a service name, a prefix or extension of
  // one, other case, and lengths past the probe table.
  for (const auto* token :
       {"", "n", "nova-", "novx", "hxrizon", "nova-computer", "neutron-agents",
        "Nova", "NOVA", "compute", "nova.node-1", "neutron-agent-xx-long",
        "a-very-long-topic-name"}) {
    EXPECT_EQ(service_from_string(token), ServiceKind::Unknown) << token;
  }
}

}  // namespace
}  // namespace gretel::wire
