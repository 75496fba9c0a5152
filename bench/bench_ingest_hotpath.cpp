// Ingestion hot-path benchmark: decode + API resolution throughput and
// heap-allocation counts of the capture tap, and detector ingest
// throughput.
//
// Recorded in BENCH_ingest.json:
//  1. events/sec on decode+resolve: the zero-copy view parsers and the
//     transparent catalog lookup of net::CaptureTap.
//  2. allocations/event: a counting global operator new shows the warmed-up
//     CaptureTap performs zero steady-state heap allocations per decoded
//     event.  This is a gate: the bench exits 2 when the count is above 0.
//  3. detector ingest events/sec on the pre-decoded pool.  The pool is
//     fault-free, so this is an ingest microbenchmark, not an end-to-end
//     number (see perfbench/).
//
// Usage: bench_ingest_hotpath [--events N] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "net/capture.h"
#include "tools/cli_common.h"
#include "wire/amqp_codec.h"
#include "wire/http_codec.h"

// ---------------------------------------------------------------------------
// Counting allocator hook.  Relaxed atomics: the measurements are
// single-threaded; the ingest section only uses wall-clock time.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

inline void count_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace gretel;

// ---------------------------------------------------------------------------
// Synthetic capture: a clean (fault-free) record pool cycling over every
// catalog API — request/response pairs for REST, publish/deliver for RPC —
// with a bounded conn-id set so the tap's per-stream map reaches a steady
// state during warmup.
// ---------------------------------------------------------------------------

std::string instantiate_template(std::string_view tmpl) {
  std::string out;
  std::size_t pos = 0;
  while (pos < tmpl.size()) {
    const auto id = tmpl.find("<ID>", pos);
    if (id == std::string_view::npos) {
      out.append(tmpl.substr(pos));
      break;
    }
    out.append(tmpl.substr(pos, id - pos));
    out.append("0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9");
    pos = id + 4;
  }
  return out;
}

std::vector<net::WireRecord> build_pool(const bench::BenchEnv& env) {
  // Reverse the port map so each REST request lands on its service's port.
  const auto by_port = env.deployment.service_by_port();
  std::unordered_map<wire::ServiceKind, std::uint16_t> port_of;
  for (const auto& [port, svc] : by_port) port_of.emplace(svc, port);

  // Message shapes modeled on real OpenStack API traffic: every client call
  // carries a keystone fernet token (~180 chars), content-negotiation
  // headers, and a JSON body; responses echo the request id and return a
  // JSON resource representation.
  const std::string auth_token =
      "gAAAAABkZ3J1dGVsLWJlbmNoLXRva2Vu" +
      std::string(150, 'X');  // fernet tokens run ~180-250 chars
  const std::string req_body =
      R"({"server": {"name": "bench-vm", "imageRef": )"
      R"("0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9", "flavorRef": "42", )"
      R"("networks": [{"uuid": "11112222-3333-4444-5555-666677778888"}]}})";
  const std::string resp_body =
      R"({"server": {"id": "0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9", )"
      R"("status": "BUILD", "links": [{"href": )"
      R"("http://controller:8774/v2.1/servers/0a1b2c3d", "rel": "self"}], )"
      R"("OS-EXT-STS:task_state": "scheduling"}})";
  const std::string rpc_args =
      R"({"oslo.version": "2.0", "oslo.message": {"method": "%s", )"
      R"("args": {"instance_uuid": "0a1b2c3d-4e5f-6071-8293-a4b5c6d7e8f9", )"
      R"("host": "compute-1", "request_spec": {"num_instances": 1}}}})";

  std::vector<net::WireRecord> pool;
  std::uint32_t conn = 1;
  std::uint64_t msg_id = 1;
  for (const auto& api : env.catalog.apis().all()) {
    if (api.kind == wire::ApiKind::Rest) {
      const auto port_it = port_of.find(api.service);
      if (port_it == port_of.end()) continue;
      wire::HttpRequest req;
      req.method = api.method;
      req.target = instantiate_template(api.path);
      req.headers.set("Host", std::string(wire::to_string(api.service)));
      req.headers.set("User-Agent", "python-openstackclient keystoneauth1");
      req.headers.set("Accept", "application/json");
      req.headers.set("Accept-Encoding", "gzip, deflate");
      req.headers.set("Connection", "keep-alive");
      req.headers.set("Content-Type", "application/json");
      req.headers.set("X-Auth-Token", auth_token);
      req.headers.set("X-Openstack-Request-Id",
                      "req-" + std::to_string(conn));
      if (req.method != wire::HttpMethod::Get) req.body = req_body;

      net::WireRecord r;
      r.conn_id = conn;
      r.dst.port = port_it->second;
      r.bytes = serialize(req);
      pool.push_back(r);

      wire::HttpResponse resp;
      resp.status = 200;
      resp.headers.set("Content-Type", "application/json");
      resp.headers.set("Vary", "X-OpenStack-Nova-API-Version");
      resp.headers.set("Date", "Tue, 05 Aug 2026 12:00:00 GMT");
      resp.headers.set("Connection", "keep-alive");
      resp.headers.set("X-Openstack-Request-Id",
                       "req-" + std::to_string(conn));
      resp.body = resp_body;
      net::WireRecord rr;
      rr.conn_id = conn;
      rr.dst.port = 0;  // responses resolve via the stream, not the port
      rr.bytes = serialize(resp);
      pool.push_back(rr);
      conn = conn % 64 + 1;  // bounded stream-id set -> steady-state map
    } else {
      wire::AmqpFrame frame;
      frame.routing_key =
          std::string(wire::to_string(api.service)) + ".node-1";
      frame.method_name = api.rpc_method;
      frame.msg_id = msg_id++;
      frame.correlation_id = conn;
      frame.type = wire::AmqpFrameType::Publish;
      frame.payload = rpc_args;
      net::WireRecord pub;
      pub.is_amqp = true;
      pub.bytes = serialize(frame);
      pool.push_back(pub);

      frame.type = wire::AmqpFrameType::Deliver;
      frame.payload = R"({"oslo.reply": {"result": {"host": "compute-1", )"
                      R"("nodename": "compute-1.domain", "limits": {}}, )"
                      R"("ending": true}})";
      net::WireRecord del;
      del.is_amqp = true;
      del.bytes = serialize(frame);
      pool.push_back(del);
    }
  }
  // Spread timestamps so the latency pairing sees sane deltas.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].ts = util::SimTime(static_cast<std::int64_t>(i) * 500'000);
  }
  return pool;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct DecodeMeasurement {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

template <typename DecodeFn>
DecodeMeasurement measure_decode(const std::vector<net::WireRecord>& pool,
                                 std::size_t passes, DecodeFn&& decode) {
  std::size_t decoded = 0;
  // Warmup: grows the arena slab list / conn map / malloc pools to their
  // high-water mark so the measured passes see the steady state.
  for (const auto& r : pool) decoded += decode(r);

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& r : pool) decoded += decode(r);
  }
  const double elapsed = seconds_since(t0);
  g_count_allocs.store(false, std::memory_order_relaxed);
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed);

  const auto events = static_cast<double>(passes * pool.size());
  DecodeMeasurement m;
  m.events_per_sec = events / elapsed;
  m.allocs_per_event = static_cast<double>(allocs) / events;
  if (decoded == 0) m.events_per_sec = 0.0;  // guard against dead-code elim
  return m;
}

// Events/sec of AnomalyDetector::on_event over the pre-decoded pool.
double measure_ingest(const bench::BenchEnv& env,
                      const std::vector<wire::Event>& events,
                      std::size_t passes) {
  core::GretelConfig config;
  config.fp_max = env.training.fp_max;
  config.p_rate = 2000.0;
  core::AnomalyDetector detector(&env.training.db, &env.catalog.apis(),
                                 config, nullptr);
  // Warmup pass (map and buffer growth).
  for (const auto& e : events) detector.on_event(e);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& e : events) detector.on_event(e);
  }
  const double elapsed = seconds_since(t0);
  detector.flush();
  return static_cast<double>(passes * events.size()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  const std::size_t target_events = args.get_uint("--events", 400'000);
  const std::string out_path = args.get("--out").value_or("BENCH_ingest.json");

  bench::print_header("Ingestion hot path: decode+resolve and ingest");
  auto env = bench::BenchEnv::make();

  const auto pool = build_pool(env);
  const std::size_t passes =
      std::max<std::size_t>(1, target_events / std::max<std::size_t>(
                                                   1, pool.size()));
  std::printf("record pool: %zu records, %zu passes (%zu events/measure)\n",
              pool.size(), passes, passes * pool.size());

  // --- decode+resolve ---
  net::CaptureTap tap(&env.catalog.apis(), env.deployment.service_by_port());
  const auto hot_m = measure_decode(pool, passes,
                                    [&](const net::WireRecord& r) {
                                      return tap.decode(r) ? 1u : 0u;
                                    });
  // Not a benchmark — a gate on the zero-allocation claim of the decode
  // path (README, docs/ARCHITECTURE.md "Hot path & memory model").
  const bool alloc_free = hot_m.allocs_per_event == 0.0;
  if (!alloc_free) {
    std::fprintf(stderr,
                 "ALLOCATION REGRESSION: the warmed-up decode path allocates "
                 "%.4f times per event\n",
                 hot_m.allocs_per_event);
  }
  std::printf("%-22s %14s %16s\n", "decode+resolve", "events/s",
              "allocs/event");
  std::printf("%-22s %14.0f %16.3f\n\n", "hotpath (arena+view)",
              hot_m.events_per_sec, hot_m.allocs_per_event);

  // --- detector ingest ---
  std::vector<wire::Event> events;
  events.reserve(pool.size());
  for (const auto& r : pool) {
    if (auto e = tap.decode(r)) events.push_back(std::move(*e));
  }
  const double ingest_eps = measure_ingest(env, events, passes);
  std::printf("%-22s %14s\n", "detector ingest", "events/s");
  std::printf("%-22s %14.0f\n", "per-event", ingest_eps);

  bench::BenchRunMeta meta;
  meta.benchmark = "ingest_hotpath";
  meta.events_measured = passes * pool.size();
  meta.pool_records = pool.size();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  write_bench_meta(f, meta);
  std::fprintf(f, ",\n");
  std::fprintf(f,
               "  \"decode_resolve\": {\n"
               "    \"hotpath\": {\"events_per_sec\": %.1f, "
               "\"allocs_per_event\": %.4f}\n"
               "  },\n",
               hot_m.events_per_sec, hot_m.allocs_per_event);
  std::fprintf(f, "  \"steady_state_allocs_per_event\": %.4f,\n",
               hot_m.allocs_per_event);
  std::fprintf(f,
               "  \"ingest\": [\n"
               "    {\"mode\": \"per_event\", \"events_per_sec\": %.1f}\n"
               "  ]\n}\n",
               ingest_eps);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return alloc_free ? 0 : 2;
}
