// Ingestion hot-path benchmark: decode + API resolution throughput and
// heap-allocation counts, before and after the arena/string_view rework.
//
// Two claims are measured and recorded in BENCH_ingest.json:
//  1. events/sec on decode+resolve: the zero-copy view parsers + transparent
//     catalog lookup versus the legacy owning parsers + allocating
//     normalize_uri + string-keyed lookup (kept in this binary as the
//     baseline comparator).
//  2. allocations/event: a counting global operator new shows the warmed-up
//     CaptureTap performs zero steady-state heap allocations per decoded
//     event; the legacy path pays several per message.
//
// Also measures detector ingestion events/sec on the pre-decoded pool,
// per-event versus batched, and cross-checks that both leave identical
// detector stats (batched ≡ per-event).  The pool is fault-free, so this is
// an ingest microbenchmark, not an end-to-end number (see perfbench/).
//
// Usage: bench_ingest_hotpath [--events N] [--out PATH]
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "net/capture.h"
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

// ---------------------------------------------------------------------------
// Legacy decode+resolve: a faithful reproduction of the pre-rework tap —
// owning parsers copying every header into std::strings, the allocating
// normalize_uri, and the string-keyed catalog maps whose every lookup
// built a key string.  Reproduced here (from the pre-rework sources) so
// the baseline does not silently inherit this PR's improvements.
// ---------------------------------------------------------------------------

std::optional<std::string_view> legacy_take_line(std::string_view& rest) {
  const auto pos = rest.find("\r\n");
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view line = rest.substr(0, pos);
  rest.remove_prefix(pos + 2);
  return line;
}

bool legacy_parse_headers(std::string_view& rest, wire::HttpHeaders& out) {
  while (true) {
    auto line = legacy_take_line(rest);
    if (!line) return false;
    if (line->empty()) return true;
    const auto colon = line->find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = line->substr(0, colon);
    std::string_view value = line->substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.set(std::string(name), std::string(value));
  }
}

std::optional<wire::HttpRequest> legacy_parse_request(std::string_view bytes) {
  std::string_view rest = bytes;
  auto line = legacy_take_line(rest);
  if (!line) return std::nullopt;
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  const auto method = wire::parse_http_method(line->substr(0, sp1));
  if (!method) return std::nullopt;
  std::string_view target = line->substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || line->substr(sp2 + 1) != "HTTP/1.1")
    return std::nullopt;
  wire::HttpRequest req;
  req.method = *method;
  req.target = std::string(target);
  if (!legacy_parse_headers(rest, req.headers)) return std::nullopt;
  req.body = std::string(rest);
  return req;
}

std::optional<wire::HttpResponse> legacy_parse_response(
    std::string_view bytes) {
  std::string_view rest = bytes;
  auto line = legacy_take_line(rest);
  if (!line) return std::nullopt;
  const auto sp1 = line->find(' ');
  if (sp1 == std::string_view::npos ||
      line->substr(0, sp1) != "HTTP/1.1") {
    return std::nullopt;
  }
  const auto sp2 = line->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  wire::HttpResponse resp;
  resp.status = static_cast<std::uint16_t>(
      std::atoi(std::string(line->substr(sp1 + 1, sp2 - sp1 - 1)).c_str()));
  resp.reason = std::string(line->substr(sp2 + 1));
  if (!legacy_parse_headers(rest, resp.headers)) return std::nullopt;
  resp.body = std::string(rest);
  return resp;
}

// Pre-rework URI normalization: appends into a fresh std::string per call.
std::string legacy_normalize_uri(std::string_view target) {
  if (const auto q = target.find('?'); q != std::string_view::npos)
    target = target.substr(0, q);
  std::string out;
  out.reserve(target.size());
  std::size_t pos = 0;
  while (pos <= target.size()) {
    const auto slash = target.find('/', pos);
    std::string_view seg = slash == std::string_view::npos
                               ? target.substr(pos)
                               : target.substr(pos, slash - pos);
    std::string_view stem = seg;
    std::string_view ext;
    if (const auto dot = seg.rfind('.'); dot != std::string_view::npos &&
                                         dot > 0 && seg.size() - dot <= 5) {
      stem = seg.substr(0, dot);
      ext = seg.substr(dot);
    }
    bool id_like = false;
    if (!stem.empty()) {
      bool all_digits = true;
      std::size_t hexish = 0;
      for (char c : stem) {
        const auto uc = static_cast<unsigned char>(c);
        if (!std::isdigit(uc)) all_digits = false;
        if (std::isxdigit(uc) || c == '-') ++hexish;
      }
      id_like = all_digits ||
                (stem.size() >= 8 && hexish == stem.size() &&
                 stem.find('-') != std::string_view::npos);
    }
    if (id_like) {
      out += "<ID>";
      out += ext;
    } else {
      out += seg;
    }
    if (slash == std::string_view::npos) break;
    out += '/';
    pos = slash + 1;
  }
  return out;
}

struct LegacyTap {
  // Pre-rework catalog tables: string keys, one key string built per probe.
  std::unordered_map<std::string, wire::ApiId> by_rest;
  std::unordered_map<std::string, wire::ApiId> by_rpc;
  std::unordered_map<std::uint16_t, wire::ServiceKind> service_by_port;
  std::unordered_map<std::uint32_t, wire::ApiId> conn_last_api;

  static std::string rest_key(wire::ServiceKind service,
                              wire::HttpMethod method,
                              std::string_view path) {
    std::string key;
    key += static_cast<char>('A' + static_cast<int>(service));
    key += static_cast<char>('0' + static_cast<int>(method));
    key += path;
    return key;
  }
  static std::string rpc_key(wire::ServiceKind service,
                             std::string_view method) {
    std::string key;
    key += static_cast<char>('A' + static_cast<int>(service));
    key += method;
    return key;
  }

  explicit LegacyTap(const bench::BenchEnv& env)
      : service_by_port(env.deployment.service_by_port()) {
    for (const auto& api : env.catalog.apis().all()) {
      if (api.kind == wire::ApiKind::Rest) {
        by_rest.emplace(rest_key(api.service, api.method, api.path), api.id);
      } else {
        by_rpc.emplace(rpc_key(api.service, api.rpc_method), api.id);
      }
    }
  }

  // Pre-rework case-insensitive lookup went through std::tolower; keep that
  // cost in the baseline rather than inheriting the ASCII fast path.
  static bool legacy_iequals(std::string_view a, std::string_view b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
             return std::tolower(static_cast<unsigned char>(x)) ==
                    std::tolower(static_cast<unsigned char>(y));
           });
  }
  static std::optional<std::string_view> legacy_get(
      const wire::HttpHeaders& headers, std::string_view name) {
    for (const auto& [n, v] : headers.fields) {
      if (legacy_iequals(n, name)) return std::string_view(v);
    }
    return std::nullopt;
  }

  static std::uint32_t parse_correlation(const wire::HttpHeaders& headers) {
    const auto value = legacy_get(headers, "X-Openstack-Request-Id");
    if (!value || !value->starts_with("req-")) return 0;
    std::uint32_t id = 0;
    for (char c : value->substr(4)) {
      if (c < '0' || c > '9') return 0;
      id = id * 10 + static_cast<std::uint32_t>(c - '0');
    }
    return id;
  }

  // Full pre-rework decode, producing the same wire::Event the hot path
  // produces so the two measurements cover identical work.
  std::optional<wire::Event> decode(const net::WireRecord& record) {
    auto event = record.is_amqp ? decode_amqp(record) : decode_rest(record);
    if (event) {
      event->ts = record.ts;
      event->src_node = record.src_node;
      event->dst_node = record.dst_node;
      event->src = record.src;
      event->dst = record.dst;
      event->wire_bytes = static_cast<std::uint32_t>(record.bytes.size());
      event->truth_instance = record.truth_instance;
      event->truth_template = record.truth_template;
      event->truth_noise = record.truth_noise;
      event->identifiers = record.identifiers;
    }
    return event;
  }

  std::optional<wire::Event> decode_rest(const net::WireRecord& record) {
    wire::Event ev;
    ev.kind = wire::ApiKind::Rest;
    ev.conn_id = record.conn_id;
    if (std::string_view(record.bytes).starts_with("HTTP/")) {
      auto resp = legacy_parse_response(record.bytes);
      if (!resp) return std::nullopt;
      const auto it = conn_last_api.find(record.conn_id);
      if (it == conn_last_api.end()) return std::nullopt;
      ev.dir = wire::Direction::Response;
      ev.api = it->second;
      ev.status = resp->status;
      ev.correlation_id = parse_correlation(resp->headers);
      if (wire::is_error_status(resp->status)) ev.error_text = resp->reason;
      return ev;
    }
    auto req = legacy_parse_request(record.bytes);
    if (!req) return std::nullopt;
    const auto svc = service_by_port.find(record.dst.port);
    if (svc == service_by_port.end()) return std::nullopt;
    const auto it = by_rest.find(
        rest_key(svc->second, req->method, legacy_normalize_uri(req->target)));
    if (it == by_rest.end()) return std::nullopt;
    ev.dir = wire::Direction::Request;
    ev.api = it->second;
    ev.correlation_id = parse_correlation(req->headers);
    conn_last_api[record.conn_id] = it->second;
    return ev;
  }

  std::optional<wire::Event> decode_amqp(const net::WireRecord& record) {
    auto frame = wire::parse_amqp_frame(record.bytes);
    if (!frame) return std::nullopt;
    std::string_view topic = frame->routing_key;
    if (const auto dot = topic.find('.'); dot != std::string_view::npos)
      topic = topic.substr(0, dot);
    wire::ServiceKind service = wire::ServiceKind::Unknown;
    for (int s = 0; s <= static_cast<int>(wire::ServiceKind::Unknown); ++s) {
      if (wire::to_string(static_cast<wire::ServiceKind>(s)) == topic) {
        service = static_cast<wire::ServiceKind>(s);
        break;
      }
    }
    const auto it = by_rpc.find(rpc_key(service, frame->method_name));
    if (it == by_rpc.end()) return std::nullopt;
    wire::Event ev;
    ev.kind = wire::ApiKind::Rpc;
    ev.api = it->second;
    ev.msg_id = frame->msg_id;
    ev.correlation_id = frame->correlation_id;
    if (frame->type == wire::AmqpFrameType::Publish) {
      ev.dir = wire::Direction::Request;
    } else {
      ev.dir = wire::Direction::Response;
      if (wire::rpc_payload_has_error(frame->payload)) {
        ev.status = 500;
        ev.error_text = frame->payload;
      } else {
        ev.status = wire::kStatusOk;
      }
    }
    return ev;
  }
};

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

// Detector-output facts compared between per-event and batched ingestion:
// the determinism contract says they are identical for a fixed input.
struct IngestStats {
  std::uint64_t events = 0;
  std::uint64_t rest_errors = 0;
  std::uint64_t rpc_errors = 0;
  std::uint64_t operational_reports = 0;
  std::uint64_t performance_reports = 0;
  std::uint64_t suppressed_triggers = 0;
  std::uint64_t latency_samples = 0;

  bool operator==(const IngestStats&) const = default;
};

struct IngestMeasurement {
  double events_per_sec = 0.0;
  IngestStats stats;
};

core::GretelConfig ingest_config(const bench::BenchEnv& env) {
  core::GretelConfig config;
  config.fp_max = env.training.fp_max;
  config.p_rate = 2000.0;
  return config;
}

IngestMeasurement measure_ingest(const bench::BenchEnv& env,
                                 const std::vector<wire::Event>& events,
                                 bool batched, std::size_t passes) {
  core::AnomalyDetector detector(&env.training.db, &env.catalog.apis(),
                                 ingest_config(env), nullptr);
  // Warmup pass (map and buffer growth).
  if (batched) {
    detector.on_events(events);
  } else {
    for (const auto& e : events) detector.on_event(e);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    if (batched) {
      detector.on_events(events);
    } else {
      for (const auto& e : events) detector.on_event(e);
    }
  }
  const double elapsed = seconds_since(t0);
  detector.flush();

  IngestMeasurement m;
  m.events_per_sec = static_cast<double>(passes * events.size()) / elapsed;
  const auto& s = detector.stats();
  m.stats = {s.events,
             s.rest_errors,
             s.rpc_errors,
             s.operational_reports,
             s.performance_reports,
             s.suppressed_triggers,
             detector.latency().samples()};
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_events = 400'000;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      target_events = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::print_header("Ingestion hot path: decode+resolve and ingest");
  auto env = bench::BenchEnv::make();

  const auto pool = build_pool(env);
  const std::size_t passes =
      std::max<std::size_t>(1, target_events / std::max<std::size_t>(
                                                   1, pool.size()));
  std::printf("record pool: %zu records, %zu passes (%zu events/measure)\n",
              pool.size(), passes, passes * pool.size());

  // --- decode+resolve: legacy vs hot path ---
  LegacyTap legacy(env);
  const auto legacy_m = measure_decode(
      pool, passes,
      [&](const net::WireRecord& r) { return legacy.decode(r) ? 1u : 0u; });

  net::CaptureTap tap(&env.catalog.apis(), env.deployment.service_by_port());
  const auto hot_m = measure_decode(pool, passes,
                                    [&](const net::WireRecord& r) {
                                      return tap.decode(r) ? 1u : 0u;
                                    });
  const double speedup = hot_m.events_per_sec / legacy_m.events_per_sec;

  std::printf("%-22s %14s %16s\n", "decode+resolve", "events/s",
              "allocs/event");
  std::printf("%-22s %14.0f %16.3f\n", "legacy (owning)",
              legacy_m.events_per_sec, legacy_m.allocs_per_event);
  std::printf("%-22s %14.0f %16.3f\n", "hotpath (arena+view)",
              hot_m.events_per_sec, hot_m.allocs_per_event);
  std::printf("speedup: %.2fx\n\n", speedup);

  // --- detector ingest: per-event vs batched ---
  std::vector<wire::Event> events;
  events.reserve(pool.size());
  for (const auto& r : pool) {
    if (auto e = tap.decode(r)) events.push_back(std::move(*e));
  }
  const auto per_event = measure_ingest(env, events, false, passes);
  const auto batched = measure_ingest(env, events, true, passes);
  // Not a benchmark — a correctness gate on the determinism contract, run
  // on the bench traffic.
  const bool identical = per_event.stats == batched.stats;
  if (!identical) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: batched ingest stats diverge from "
                 "per-event ingest\n");
  }
  std::printf("%-22s %14s\n", "detector ingest", "events/s");
  std::printf("%-22s %14.0f\n", "per-event", per_event.events_per_sec);
  std::printf("%-22s %14.0f\n", "batched", batched.events_per_sec);
  std::printf("batched identical to per-event: %s\n",
              identical ? "yes" : "VIOLATED");

  bench::BenchRunMeta meta;
  meta.benchmark = "ingest_hotpath";
  meta.events_measured = passes * pool.size();
  meta.pool_records = pool.size();
  meta.ingest_batch = ingest_config(env).ingest_batch;

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
               "    \"legacy\": {\"events_per_sec\": %.1f, "
               "\"allocs_per_event\": %.4f},\n"
               "    \"hotpath\": {\"events_per_sec\": %.1f, "
               "\"allocs_per_event\": %.4f},\n"
               "    \"speedup\": %.3f\n"
               "  },\n",
               legacy_m.events_per_sec, legacy_m.allocs_per_event,
               hot_m.events_per_sec, hot_m.allocs_per_event, speedup);
  std::fprintf(f, "  \"steady_state_allocs_per_event\": %.4f,\n",
               hot_m.allocs_per_event);
  std::fprintf(f,
               "  \"ingest\": [\n"
               "    {\"mode\": \"per_event\", \"events_per_sec\": %.1f},\n"
               "    {\"mode\": \"batched\", \"events_per_sec\": %.1f}\n"
               "  ],\n",
               per_event.events_per_sec, batched.events_per_sec);
  std::fprintf(f, "  \"batched_identical_to_per_event\": %s\n}\n",
               identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return identical ? 0 : 2;
}
