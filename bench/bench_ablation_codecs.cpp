// Microbenchmarks of the wire path underlying §7.4.1's throughput: HTTP and
// AMQP serialize/parse, the tap's header scan and URI trie beside the
// parser and normalize_uri they are tested against, capture-tap decode,
// and the noise filter — the per-message costs between the NIC and the
// dual buffer.
#include <benchmark/benchmark.h>

#include "gretel/noise_filter.h"
#include "net/capture.h"
#include "stack/deployment.h"
#include "util/rng.h"
#include "wire/amqp_codec.h"
#include "wire/http_codec.h"

namespace {

using namespace gretel;

wire::HttpRequest sample_request() {
  wire::HttpRequest req;
  req.method = wire::HttpMethod::Post;
  req.target = "/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9.json";
  req.headers.set("Host", "neutron");
  req.headers.set("X-Service", "nova");
  req.headers.set("X-Auth-Token", "0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9");
  req.body = R"({"port": {"network_id": "abc", "tenant_id": "1003"}})";
  return req;
}

wire::AmqpFrame sample_frame() {
  wire::AmqpFrame frame;
  frame.routing_key = "nova-compute.compute-1";
  frame.method_name = "build_and_run_instance";
  frame.msg_id = 0xDEADBEEFull;
  frame.payload = R"({"args": {"instance": "i-1", "tenant_id": "1003"}})";
  return frame;
}

void BM_HttpSerialize(benchmark::State& state) {
  const auto req = sample_request();
  for (auto _ : state) benchmark::DoNotOptimize(wire::serialize(req));
}

// The full parser: views over the input, header array from an arena reset
// per message.  The reference for BM_HttpScan.
void BM_HttpParse(benchmark::State& state) {
  const auto bytes = wire::serialize(sample_request());
  util::Arena arena;
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(wire::parse_http_request(bytes, arena));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}

// The capture tap's shape: framing validated, only the request line and
// X-Openstack-Request-Id read.
void BM_HttpScan(benchmark::State& state) {
  const auto bytes = wire::serialize(sample_request());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::scan_http_request(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}

void BM_AmqpSerialize(benchmark::State& state) {
  const auto frame = sample_frame();
  for (auto _ : state) benchmark::DoNotOptimize(wire::serialize(frame));
}

void BM_AmqpParse(benchmark::State& state) {
  const auto bytes = wire::serialize(sample_frame());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::parse_amqp_frame_view(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}

void BM_NormalizeUri(benchmark::State& state) {
  const std::string target =
      "/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9.json?fields=id";
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::normalize_uri(target));
  }
}

// The tap's URI resolution: one trie walk, where normalize_uri (above) and
// find_rest are the reference.
void BM_ResolveRest(benchmark::State& state) {
  wire::ApiCatalog catalog;
  catalog.add_rest(wire::ServiceKind::Neutron, wire::HttpMethod::Post,
                   "/v2.0/ports/<ID>.json");
  const std::string target =
      "/v2.0/ports/0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9.json?fields=id";
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.resolve_rest(
        wire::ServiceKind::Neutron, wire::HttpMethod::Post, target));
  }
}

void BM_TapDecodeRest(benchmark::State& state) {
  wire::ApiCatalog catalog;
  catalog.add_rest(wire::ServiceKind::Neutron, wire::HttpMethod::Post,
                   "/v2.0/ports/<ID>.json");
  const auto deployment = stack::Deployment::standard(3);
  net::CaptureTap tap(&catalog, deployment.service_by_port());

  net::WireRecord record;
  record.dst.port = wire::ports::kNeutronApi;
  record.conn_id = 1;
  record.bytes = wire::serialize(sample_request());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tap.decode(record));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(record.bytes.size()));
}

void BM_NoiseFilter(benchmark::State& state) {
  wire::ApiCatalog catalog;
  std::vector<wire::ApiId> trace;
  for (int i = 0; i < 16; ++i) {
    catalog.add_rest(wire::ServiceKind::Nova, wire::HttpMethod::Get,
                     "/g" + std::to_string(i));
  }
  const auto keystone = catalog.add_rest(wire::ServiceKind::Keystone,
                                         wire::HttpMethod::Post, "/auth");
  util::Rng rng(1);
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0));
       ++i) {
    trace.push_back(rng.chance(0.2)
                        ? keystone
                        : wire::ApiId(static_cast<std::uint16_t>(
                              rng.next_below(16))));
  }
  const core::NoiseFilter filter(&catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}

}  // namespace

BENCHMARK(BM_HttpSerialize);
BENCHMARK(BM_HttpParse);
BENCHMARK(BM_HttpScan);
BENCHMARK(BM_AmqpSerialize);
BENCHMARK(BM_AmqpParse);
BENCHMARK(BM_NormalizeUri);
BENCHMARK(BM_ResolveRest);
BENCHMARK(BM_TapDecodeRest);
BENCHMARK(BM_NoiseFilter)->Arg(100)->Arg(400);

BENCHMARK_MAIN();
