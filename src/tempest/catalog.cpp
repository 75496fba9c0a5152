#include "tempest/catalog.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace gretel::tempest {

using stack::ApiStep;
using stack::Category;
using stack::OperationTemplate;
using util::Rng;
using util::SimDuration;
using wire::ApiCatalog;
using wire::ApiId;
using wire::ApiKind;
using wire::HttpMethod;
using wire::ServiceKind;

namespace {

// Table 1 of the paper, as generation targets.
struct CategorySpec {
  Category cat;
  ServiceKind primary;      // REST origin service of the category
  ServiceKind rpc_service;  // where the category's RPCs execute
  int tests;
  int uniq_rest;      // unique REST APIs observed across the category
  int uniq_rpc;       // unique RPC APIs
  double mean_steps;  // average fingerprint size w/ RPCs
  double rest_frac;   // fraction of fingerprint steps that are REST
};

constexpr int kSharedRest = 12;
constexpr int kSharedRpc = 4;
constexpr int kTotalPublicApis = 643;  // §6: OpenStack's public API count
constexpr std::size_t kMaxFingerprint = 384;  // §7: FPmax

const std::array<CategorySpec, stack::kCategories> kSpecs{{
    {Category::Compute, ServiceKind::Nova, ServiceKind::NovaCompute, 517, 195,
     61, 100.0, 0.56},
    {Category::Image, ServiceKind::Glance, ServiceKind::Glance, 55, 38, 10,
     18.0, 15.0 / 18.0},
    {Category::Network, ServiceKind::Neutron, ServiceKind::NeutronAgent, 251,
     70, 24, 31.0, 16.0 / 31.0},
    {Category::Storage, ServiceKind::Cinder, ServiceKind::Cinder, 84, 40, 11,
     17.0, 15.0 / 17.0},
    {Category::Misc, ServiceKind::Swift, ServiceKind::Swift, 293, 20, 11,
     16.0, 11.0 / 16.0},
}};

// Generates plausible REST endpoints for one service in its URL dialect.
class RestApiFactory {
 public:
  RestApiFactory(ServiceKind service, std::string prefix, bool json_suffix,
                 std::vector<std::string> resources)
      : service_(service),
        prefix_(std::move(prefix)),
        json_suffix_(json_suffix),
        resources_(std::move(resources)) {}

  ApiId next(ApiCatalog& catalog) {
    const auto& res = resources_[cursor_ % resources_.size()];
    const int phase = static_cast<int>(cursor_ / resources_.size());
    ++cursor_;
    const std::string ext = json_suffix_ ? ".json" : "";
    switch (phase) {
      case 0:
        return catalog.add_rest(service_, HttpMethod::Get,
                                prefix_ + "/" + res + ext);
      case 1:
        return catalog.add_rest(service_, HttpMethod::Post,
                                prefix_ + "/" + res + ext);
      case 2:
        return catalog.add_rest(service_, HttpMethod::Get,
                                prefix_ + "/" + res + "/<ID>" + ext);
      case 3:
        return catalog.add_rest(service_, HttpMethod::Put,
                                prefix_ + "/" + res + "/<ID>" + ext);
      case 4:
        return catalog.add_rest(service_, HttpMethod::Delete,
                                prefix_ + "/" + res + "/<ID>" + ext);
      default: {
        // Deep endpoints: actions and detail views per resource instance.
        const int k = phase - 5;
        if (k % 2 == 0) {
          return catalog.add_rest(
              service_, HttpMethod::Post,
              prefix_ + "/" + res + "/<ID>/action-" + std::to_string(k / 2) +
                  ext);
        }
        return catalog.add_rest(
            service_, HttpMethod::Get,
            prefix_ + "/" + res + "/<ID>/detail-" + std::to_string(k / 2) +
                ext);
      }
    }
  }

 private:
  ServiceKind service_;
  std::string prefix_;
  bool json_suffix_;
  std::vector<std::string> resources_;
  std::size_t cursor_ = 0;
};

RestApiFactory make_rest_factory(ServiceKind s) {
  switch (s) {
    case ServiceKind::Nova:
      return {s, "/v2.1", false,
              {"servers", "flavors", "keypairs", "os-hypervisors",
               "os-aggregates", "os-services", "os-instance-actions",
               "os-migrations", "os-server-groups", "os-keypairs",
               "os-volumes_boot", "limits"}};
    case ServiceKind::Neutron:
      return {s, "/v2.0", true,
              {"networks", "subnets", "routers", "floatingips",
               "security-groups", "security-group-rules", "agents",
               "extensions", "subnetpools", "metering-labels"}};
    case ServiceKind::Glance:
      return {s, "/v2", false,
              {"images", "tasks", "metadefs", "members", "stores",
               "namespaces"}};
    case ServiceKind::Cinder:
      return {s, "/v2/<ID>", false,
              {"volumes", "snapshots", "backups", "types", "qos-specs",
               "attachments", "consistencygroups", "capabilities"}};
    case ServiceKind::Swift:
      return {s, "/v1/<ID>", false,
              {"containers", "objects", "accounts", "endpoints"}};
    case ServiceKind::Keystone:
      return {s, "/v3", false,
              {"users", "projects", "roles", "domains", "groups",
               "credentials", "policies", "regions"}};
    default:
      return {s, "/v1", false, {"resources"}};
  }
}

// RPC method-name generator: verb_noun combinations per service.
class RpcApiFactory {
 public:
  explicit RpcApiFactory(ServiceKind service) : service_(service) {}

  ApiId next(ApiCatalog& catalog) {
    static const std::array<const char*, 14> kVerbs{
        "build", "allocate", "deallocate", "attach", "detach", "refresh",
        "sync", "update", "prepare", "finalize", "reserve", "release",
        "setup", "teardown"};
    static const std::array<const char*, 12> kNouns{
        "instance", "network_info", "device", "volume_connection",
        "image_meta", "port_binding", "security_groups", "flavor_cache",
        "console", "snapshot", "quota_usage", "host_state"};
    const auto verb = kVerbs[cursor_ % kVerbs.size()];
    const auto noun = kNouns[(cursor_ / kVerbs.size()) % kNouns.size()];
    const auto round = cursor_ / (kVerbs.size() * kNouns.size());
    ++cursor_;
    std::string name = std::string(verb) + "_" + noun;
    if (round > 0) {
      name += '_';
      name += std::to_string(round);
    }
    return catalog.add_rpc(service_, std::string(to_string(service_)),
                           std::move(name));
  }

 private:
  ServiceKind service_;
  std::size_t cursor_ = 0;
};

SimDuration step_latency(const wire::ApiDescriptor& d, Rng& rng) {
  if (d.kind == ApiKind::Rpc)
    return SimDuration::millis(rng.next_in(8, 30));
  if (d.state_change()) return SimDuration::millis(rng.next_in(6, 18));
  return SimDuration::millis(rng.next_in(3, 8));
}

ServiceKind rpc_caller_for(ServiceKind callee, ServiceKind primary) {
  switch (callee) {
    case ServiceKind::NovaCompute:
      return ServiceKind::Nova;
    case ServiceKind::NeutronAgent:
      return ServiceKind::Neutron;
    case ServiceKind::Neutron:
      return ServiceKind::NovaCompute;  // agents query during VM boot
    default:
      return primary;
  }
}

}  // namespace

TempestCatalog TempestCatalog::build(std::uint64_t seed, double fraction) {
  TempestCatalog cat;
  Rng rng(seed);

  ApiCatalog& apis = cat.apis_;
  cat.infra_ = stack::register_infra_apis(apis);

  // --- Well-known APIs from the paper's narrative -------------------------
  WellKnownApis& wk = cat.well_known_;
  wk.nova_post_servers =
      apis.add_rest(ServiceKind::Nova, HttpMethod::Post, "/v2.1/servers");
  wk.nova_get_server =
      apis.add_rest(ServiceKind::Nova, HttpMethod::Get, "/v2.1/servers/<ID>");
  wk.nova_post_os_interface = apis.add_rest(
      ServiceKind::Nova, HttpMethod::Post, "/v2.1/servers/<ID>/os-interface");
  wk.neutron_get_ports =
      apis.add_rest(ServiceKind::Neutron, HttpMethod::Get, "/v2.0/ports.json");
  wk.neutron_post_ports = apis.add_rest(ServiceKind::Neutron, HttpMethod::Post,
                                        "/v2.0/ports.json");
  wk.neutron_get_networks = apis.add_rest(ServiceKind::Neutron,
                                          HttpMethod::Get,
                                          "/v2.0/networks.json");
  wk.neutron_get_quotas = apis.add_rest(ServiceKind::Neutron, HttpMethod::Get,
                                        "/v2.0/quotas/<ID>.json");
  wk.neutron_get_secgroups = apis.add_rest(
      ServiceKind::Neutron, HttpMethod::Get, "/v2.0/security-groups.json");
  wk.glance_get_image =
      apis.add_rest(ServiceKind::Glance, HttpMethod::Get, "/v2/images/<ID>");
  wk.glance_post_images =
      apis.add_rest(ServiceKind::Glance, HttpMethod::Post, "/v2/images");
  wk.glance_put_image_file = apis.add_rest(
      ServiceKind::Glance, HttpMethod::Put, "/v2/images/<ID>/file");
  wk.cinder_get_volumes =
      apis.add_rest(ServiceKind::Cinder, HttpMethod::Get, "/v2/<ID>/volumes");
  wk.cinder_post_volumes =
      apis.add_rest(ServiceKind::Cinder, HttpMethod::Post, "/v2/<ID>/volumes");
  wk.rpc_build_instance = apis.add_rpc(ServiceKind::NovaCompute,
                                       "nova-compute",
                                       "build_and_run_instance");
  wk.rpc_allocate_network =
      apis.add_rpc(ServiceKind::NovaCompute, "nova-compute",
                   "allocate_network");
  wk.rpc_plug_vif =
      apis.add_rpc(ServiceKind::NeutronAgent, "neutron-agent",
                   "plug_interface");
  wk.rpc_get_device_details = apis.add_rpc(
      ServiceKind::Neutron, "neutron", "get_devices_details_list");
  wk.rpc_sec_group_info = apis.add_rpc(ServiceKind::Neutron, "neutron",
                                       "security_group_info_for_devices");

  // --- Shared pool: APIs common across categories (keeps Fig. 5's cross-
  // category overlap near but below 15%) --------------------------------
  std::vector<ApiId> shared_rest{
      wk.nova_get_server,      wk.neutron_get_ports, wk.neutron_get_networks,
      wk.neutron_get_quotas,   wk.glance_get_image,  wk.cinder_get_volumes,
      wk.neutron_get_secgroups};
  {
    auto keystone = make_rest_factory(ServiceKind::Keystone);
    while (shared_rest.size() < kSharedRest)
      shared_rest.push_back(keystone.next(apis));
  }
  std::vector<ApiId> shared_rpc{wk.rpc_get_device_details,
                                wk.rpc_sec_group_info};
  {
    RpcApiFactory nova_rpc(ServiceKind::NovaCompute);
    while (shared_rpc.size() < kSharedRpc)
      shared_rpc.push_back(nova_rpc.next(apis));
  }

  // --- Per-category private pools ----------------------------------------
  std::array<std::vector<ApiId>, stack::kCategories> private_rest;
  std::array<std::vector<ApiId>, stack::kCategories> private_rpc;

  for (const auto& spec : kSpecs) {
    const auto ci = static_cast<std::size_t>(spec.cat);
    auto& rest = private_rest[ci];
    auto& rpc = private_rpc[ci];

    // Seed pools with the category's well-known state-change APIs.
    switch (spec.cat) {
      case Category::Compute:
        rest = {wk.nova_post_servers, wk.nova_post_os_interface};
        rpc = {wk.rpc_build_instance, wk.rpc_allocate_network};
        break;
      case Category::Image:
        rest = {wk.glance_post_images, wk.glance_put_image_file};
        break;
      case Category::Network:
        rest = {wk.neutron_post_ports};
        rpc = {wk.rpc_plug_vif};
        break;
      case Category::Storage:
        rest = {wk.cinder_post_volumes};
        break;
      case Category::Misc:
        break;
    }

    // The factories can regenerate endpoints that already exist (e.g. the
    // well-known POST /v2.1/servers); keep pools free of duplicates and of
    // shared-pool members so per-category unique counts stay on target.
    auto contains = [](const std::vector<ApiId>& v, ApiId id) {
      return std::find(v.begin(), v.end(), id) != v.end();
    };

    auto rest_factory = make_rest_factory(spec.primary);
    while (rest.size() < static_cast<std::size_t>(spec.uniq_rest -
                                                  kSharedRest)) {
      const ApiId id = rest_factory.next(apis);
      if (!contains(rest, id) && !contains(shared_rest, id))
        rest.push_back(id);
    }

    RpcApiFactory rpc_factory(spec.rpc_service);
    while (rpc.size() <
           static_cast<std::size_t>(spec.uniq_rpc - kSharedRpc)) {
      const ApiId id = rpc_factory.next(apis);
      if (!contains(rpc, id) && !contains(shared_rpc, id))
        rpc.push_back(id);
    }
  }

  // --- Pad the catalog to OpenStack's 643 public APIs (Tempest exercises
  // only a subset, §7.1 "Limitation") -----------------------------------
  {
    auto keystone = make_rest_factory(ServiceKind::Keystone);
    auto swift = make_rest_factory(ServiceKind::Swift);
    bool flip = false;
    while (apis.size() < kTotalPublicApis) {
      (flip ? keystone : swift).next(apis);
      flip = !flip;
    }
  }

  // --- "Basic operations": shared building blocks within a category (§4's
  // CFG composition; also the source of within-category overlap) ---------
  std::array<std::vector<std::vector<ApiId>>, stack::kCategories> basics;
  for (const auto& spec : kSpecs) {
    const auto ci = static_cast<std::size_t>(spec.cat);
    const int nb = std::max(3, spec.tests / 8);
    Rng brng = rng.fork();
    for (int b = 0; b < nb; ++b) {
      const auto len = static_cast<std::size_t>(brng.next_in(3, 10));
      std::vector<ApiId> seq;
      for (std::size_t i = 0; i < len; ++i) {
        const bool want_rest = brng.next_double() < spec.rest_frac;
        const auto& pool = want_rest ? private_rest[ci] : private_rpc[ci];
        const auto& fallback = want_rest ? shared_rest : shared_rpc;
        const auto& use = pool.empty() ? fallback : pool;
        ApiId pick = use[brng.next_below(use.size())];
        if (!seq.empty() && seq.back() == pick) continue;  // no adjacents
        seq.push_back(pick);
      }
      if (!seq.empty()) basics[ci].push_back(std::move(seq));
    }
  }

  // Poll APIs per category (dashboard status GET used to surface aborts).
  std::array<ApiId, stack::kCategories> poll{};
  poll[static_cast<std::size_t>(Category::Compute)] = wk.nova_get_server;
  poll[static_cast<std::size_t>(Category::Image)] = wk.glance_get_image;
  poll[static_cast<std::size_t>(Category::Network)] = wk.neutron_get_ports;
  poll[static_cast<std::size_t>(Category::Storage)] = wk.cinder_get_volumes;
  poll[static_cast<std::size_t>(Category::Misc)] = shared_rest.back();

  // --- Generate operations -------------------------------------------------
  auto add_operation = [&](OperationTemplate op) -> std::size_t {
    op.id = wire::OpTemplateId(
        static_cast<std::uint32_t>(cat.operations_.size()));
    const auto idx = cat.operations_.size();
    cat.by_category_[static_cast<std::size_t>(op.category)].push_back(idx);
    cat.operations_.push_back(std::move(op));
    return idx;
  };

  auto make_step = [&](ApiId api, const CategorySpec& spec, bool first,
                       ServiceKind prev_callee, Rng& orng) {
    const auto& desc = apis.get(api);
    ApiStep step;
    step.api = api;
    step.callee = desc.service;
    if (desc.kind == ApiKind::Rpc) {
      step.caller = rpc_caller_for(desc.service, spec.primary);
    } else if (first) {
      step.caller = ServiceKind::Horizon;
    } else {
      const double r = orng.next_double();
      if (r < 0.60) {
        step.caller = spec.primary;
      } else if (r < 0.85 && prev_callee != desc.service) {
        step.caller = prev_callee;
      } else {
        step.caller = ServiceKind::Horizon;
      }
    }
    step.base_latency = step_latency(desc, orng);
    return step;
  };

  std::size_t compute_longest_idx = 0;

  for (const auto& spec : kSpecs) {
    const auto ci = static_cast<std::size_t>(spec.cat);
    // Reserve slots for hand-built canonical operations so full-scale totals
    // match Table 1 (Compute 517, Image 55, Storage 84 include them).
    int reserved = 0;
    if (spec.cat == Category::Compute) reserved = 2;   // vm_create, snapshot
    if (spec.cat == Category::Image) reserved = 1;     // image_upload
    if (spec.cat == Category::Storage) reserved = 2;   // volume_create, list
    const int count = std::max(
        2, static_cast<int>(std::lround(spec.tests * fraction)) - reserved);

    Rng crng = rng.fork();
    for (int t = 0; t < count; ++t) {
      Rng orng = crng.fork();
      const double raw = orng.next_gaussian(spec.mean_steps,
                                            0.35 * spec.mean_steps);
      const auto target = static_cast<std::size_t>(std::clamp(
          raw, 5.0, static_cast<double>(kMaxFingerprint)));

      OperationTemplate op;
      op.category = spec.cat;
      op.name = std::string(to_string(spec.cat)) + "-op-" +
                std::to_string(t);
      op.poll_api = poll[ci];

      // Entry: a state-change API of the category (operations originate at
      // the dashboard/CLI with a REST directive, §4).
      const auto& entries = private_rest[ci];
      ApiId entry = entries[orng.next_below(std::min<std::size_t>(
          entries.size(), 6))];
      op.steps.push_back(make_step(entry, spec, true,
                                   ServiceKind::Horizon, orng));

      ServiceKind prev = apis.get(entry).service;
      // Compose from basics until ~70% of the target, then pad singles.
      const auto& cat_basics = basics[ci];
      while (op.steps.size() < target * 7 / 10 && !cat_basics.empty()) {
        const auto& b = cat_basics[orng.next_below(cat_basics.size())];
        for (ApiId api : b) {
          if (op.steps.size() >= target) break;
          if (op.steps.back().api == api) continue;
          op.steps.push_back(make_step(api, spec, false, prev, orng));
          prev = apis.get(api).service;
        }
      }
      while (op.steps.size() < target) {
        const bool want_rest = orng.next_double() < spec.rest_frac;
        const auto& pool = [&]() -> const std::vector<ApiId>& {
          if (want_rest)
            return orng.next_double() < 0.85 ? private_rest[ci] : shared_rest;
          return !private_rpc[ci].empty() && orng.next_double() < 0.80
                     ? private_rpc[ci]
                     : shared_rpc;
        }();
        ApiId api = pool[orng.next_below(pool.size())];
        if (op.steps.back().api == api) continue;
        op.steps.push_back(make_step(api, spec, false, prev, orng));
        prev = apis.get(api).service;
      }

      // Real Tempest tests finish by polling the resource status from the
      // dashboard/CLI; the poll GET is therefore part of every successful
      // trace and of the learned fingerprint.
      if (op.steps.back().api != op.poll_api) {
        ApiStep poll_step;
        poll_step.api = op.poll_api;
        poll_step.caller = ServiceKind::Horizon;
        poll_step.callee = apis.get(op.poll_api).service;
        poll_step.base_latency = SimDuration::millis(4);
        op.steps.push_back(poll_step);
      }

      // Sprinkle transient steps *in addition to* the stable skeleton, so
      // fingerprints (post-LCS) keep roughly the target size.  Transients
      // model client retry/read chatter, so they duplicate read-only steps
      // only — a transient state change would be a different operation.
      const auto n_transient = op.steps.size() / 14;
      for (std::size_t k = 0; k < n_transient; ++k) {
        const auto src = 1 + orng.next_below(op.steps.size() - 1);
        if (apis.get(op.steps[src].api).state_change()) continue;
        ApiStep extra = op.steps[src];
        extra.transient = true;
        extra.transient_prob = 0.45;
        // Insert away from identical neighbours so the noise filter's
        // consecutive-repeat collapse doesn't hide it; LCS must prune it.
        const auto pos = 1 + orng.next_below(op.steps.size() - 1);
        if (op.steps[pos].api == extra.api ||
            (pos > 0 && op.steps[pos - 1].api == extra.api)) {
          continue;
        }
        op.steps.insert(op.steps.begin() + static_cast<std::ptrdiff_t>(pos),
                        extra);
      }

      const auto idx = add_operation(std::move(op));
      if (spec.cat == Category::Compute &&
          cat.operations_[idx].steps.size() >
              cat.operations_[compute_longest_idx].steps.size()) {
        compute_longest_idx = idx;
      }
    }
  }

  // Force FPmax = 384 on the longest Compute operation (Table 1 / §7).
  {
    auto& longest = cat.operations_[compute_longest_idx];
    Rng orng = rng.fork();
    const auto ci = static_cast<std::size_t>(Category::Compute);
    ServiceKind prev = ServiceKind::Nova;
    while (longest.steps.size() < kMaxFingerprint) {
      const auto& pool = orng.next_double() < 0.56 ? private_rest[ci]
                                                   : private_rpc[ci];
      ApiId api = pool[orng.next_below(pool.size())];
      if (longest.steps.back().api == api) continue;
      longest.steps.push_back(make_step(
          api, kSpecs[static_cast<std::size_t>(Category::Compute)], false,
          prev, orng));
      prev = apis.get(api).service;
    }
  }

  // --- Canonical operations from the paper --------------------------------
  Rng canon_rng = rng.fork();
  auto lat = [&](int lo, int hi) {
    return SimDuration::millis(canon_rng.next_in(lo, hi));
  };

  {  // VM create (Fig. 2 / Fig. 4): 7 REST + 3 RPC — all of which survive
    // noise filtering, so the learned fingerprint matches the paper's size.
    OperationTemplate op;
    op.category = Category::Compute;
    op.name = "vm-create";
    op.poll_api = wk.nova_get_server;
    using SK = ServiceKind;
    const ApiId nova_get_flavors =
        apis.add_rest(SK::Nova, HttpMethod::Get, "/v2.1/flavors");
    op.steps = {
        {nova_get_flavors, SK::Horizon, SK::Nova, lat(3, 6), false, 1.0},
        {wk.nova_post_servers, SK::Horizon, SK::Nova, lat(8, 15), false, 1.0},
        {wk.rpc_build_instance, SK::Nova, SK::NovaCompute, lat(15, 30), false,
         1.0},
        {wk.glance_get_image, SK::NovaCompute, SK::Glance, lat(4, 9), false,
         1.0},
        {wk.neutron_get_networks, SK::Nova, SK::Neutron, lat(3, 7), false,
         1.0},
        {wk.neutron_get_quotas, SK::Nova, SK::Neutron, lat(3, 7), false, 1.0},
        {wk.rpc_get_device_details, SK::NovaCompute, SK::Neutron, lat(8, 16),
         false, 1.0},
        {wk.neutron_post_ports, SK::Nova, SK::Neutron, lat(8, 14), false,
         1.0},
        {wk.rpc_plug_vif, SK::Neutron, SK::NeutronAgent, lat(10, 22), false,
         1.0},
        {wk.nova_get_server, SK::Horizon, SK::Nova, lat(3, 6), false, 1.0},
    };
    cat.canonical_.vm_create = add_operation(std::move(op));
  }

  std::vector<ApiStep> volume_create_core;
  {  // Volume create (S2 of §4) — also embedded inside VM snapshot (S1).
    using SK = ServiceKind;
    volume_create_core = {
        {wk.cinder_post_volumes, SK::Horizon, SK::Cinder, lat(8, 14), false,
         1.0},
        {private_rpc[static_cast<std::size_t>(Category::Storage)][0],
         SK::Cinder, SK::Cinder, lat(10, 20), false, 1.0},
        {wk.cinder_get_volumes, SK::Horizon, SK::Cinder, lat(3, 6), false,
         1.0},
    };
    OperationTemplate op;
    op.category = Category::Storage;
    op.name = "volume-create";
    op.poll_api = wk.cinder_get_volumes;
    op.steps = volume_create_core;
    cat.canonical_.volume_create = add_operation(std::move(op));
  }

  {  // VM snapshot (S1 of §4): D S2 E — subsumes volume create.
    using SK = ServiceKind;
    OperationTemplate op;
    op.category = Category::Compute;
    op.name = "vm-snapshot";
    op.poll_api = wk.nova_get_server;
    op.steps = {
        {wk.nova_get_server, SK::Horizon, SK::Nova, lat(3, 6), false, 1.0},
        {private_rest[static_cast<std::size_t>(Category::Compute)][1],
         SK::Horizon, SK::Nova, lat(8, 14), false, 1.0},  // snapshot action
        {wk.glance_post_images, SK::Nova, SK::Glance, lat(8, 14), false, 1.0},
    };
    op.steps.insert(op.steps.end(), volume_create_core.begin(),
                    volume_create_core.end());
    op.steps.push_back({wk.glance_get_image, SK::Nova, SK::Glance, lat(3, 7),
                        false, 1.0});
    cat.canonical_.vm_snapshot = add_operation(std::move(op));
  }

  {  // Image upload (§7.2.1).
    using SK = ServiceKind;
    OperationTemplate op;
    op.category = Category::Image;
    op.name = "image-upload";
    op.poll_api = wk.glance_get_image;
    op.steps = {
        {wk.glance_post_images, SK::Horizon, SK::Glance, lat(8, 14), false,
         1.0},
        {wk.glance_put_image_file, SK::Horizon, SK::Glance, lat(40, 80),
         false, 1.0},
        {wk.glance_get_image, SK::Horizon, SK::Glance, lat(3, 6), false, 1.0},
    };
    cat.canonical_.image_upload = add_operation(std::move(op));
  }

  {  // cinder list (§7.2.4): CLI listing with Keystone auth in front.
    using SK = ServiceKind;
    OperationTemplate op;
    op.category = Category::Storage;
    op.name = "cinder-list";
    op.poll_api = wk.cinder_get_volumes;
    op.steps = {
        {shared_rest[8], SK::Horizon, SK::Keystone, lat(3, 6), false, 1.0},
        {wk.cinder_get_volumes, SK::Horizon, SK::Cinder, lat(3, 7), false,
         1.0},
    };
    cat.canonical_.cinder_list = add_operation(std::move(op));
  }

  return cat;
}

std::size_t TempestCatalog::max_operation_steps() const {
  std::size_t m = 0;
  for (const auto& op : operations_) m = std::max(m, op.steps.size());
  return m;
}

}  // namespace gretel::tempest
