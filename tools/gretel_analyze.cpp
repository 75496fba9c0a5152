// gretel_analyze — runs the GRETEL analyzer over a recorded capture using a
// trained fingerprint database; the production-side half of the pipeline.
//
//   gretel_analyze --db fingerprints.db --capture traffic.cap
//                  [--seed N] [--fraction F]   (must match gretel_train's)
//                  [--json]                    (machine-readable output)
//
// Note: the catalog is rebuilt from (--seed, --fraction) and validated
// against the database's embedded catalog hash, so mismatched artifacts
// fail loudly instead of mismatching symbols.
#include <cstdio>

#include "gretel/analyzer.h"
#include "gretel/db_io.h"
#include "gretel/json_export.h"
#include "monitor/metrics.h"
#include "net/capture_file.h"
#include "tempest/catalog.h"
#include "tools/cli_common.h"

int main(int argc, char** argv) {
  using namespace gretel;
  const tools::Args args(argc, argv);
  const auto db_path = args.get("--db");
  const auto cap_path = args.get("--capture");
  if (!db_path || !cap_path || args.has_flag("--help")) {
    std::fprintf(stderr,
                 "usage: gretel_analyze --db <file> --capture <file> "
                 "[--seed N] [--fraction F] [--json]\n");
    return db_path && cap_path ? 0 : 2;
  }

  const auto seed = args.get_uint("--seed", 0xC0DE2016ull);
  const auto catalog =
      tempest::TempestCatalog::build(seed, args.get_double("--fraction", 1.0));
  auto deployment = stack::Deployment::standard(3);

  const auto db = core::load_fingerprint_db(*db_path, catalog.apis());
  if (!db) {
    std::fprintf(stderr,
                 "error: %s unreadable or trained on a different catalog "
                 "(check --seed/--fraction)\n",
                 db_path->c_str());
    return 1;
  }
  const auto records = net::read_capture_file(*cap_path);
  if (!records || records->empty()) {
    std::fprintf(stderr, "error: %s unreadable or empty\n",
                 cap_path->c_str());
    return 1;
  }

  const double span =
      (records->back().ts - records->front().ts).to_seconds();
  core::Analyzer::Options options;
  options.config.fp_max = db->max_fingerprint_size();
  options.config.p_rate =
      span > 0 ? static_cast<double>(records->size()) / span : 150.0;
  if (!tools::check_config("gretel_analyze", options.config)) return 2;

  core::Analyzer analyzer(&*db, &catalog.apis(), &deployment, options);
  monitor::ResourceMonitor monitor(&deployment, util::SimDuration::seconds(1),
                                   seed);
  monitor.sample_range(records->front().ts,
                       records->back().ts + util::SimDuration::seconds(3),
                       analyzer.metrics());

  for (const auto& r : *records) analyzer.on_wire(r);
  analyzer.finish();

  if (args.has_flag("--json")) {
    std::printf("%s\n",
                core::to_json(analyzer.diagnoses(), catalog.apis(), *db)
                    .c_str());
    return 0;
  }

  const auto& stats = analyzer.detector_stats();
  std::printf("processed %llu events (%llu REST errors, %llu RPC errors)\n",
              static_cast<unsigned long long>(stats.events),
              static_cast<unsigned long long>(stats.rest_errors),
              static_cast<unsigned long long>(stats.rpc_errors));
  for (const auto& d : analyzer.diagnoses()) {
    std::printf("\n[%s] fault on %s (theta %.4f)\n",
                d.fault.kind == core::FaultKind::Operational
                    ? "operational"
                    : "performance",
                catalog.apis().get(d.fault.offending_api)
                    .display_name().c_str(),
                d.fault.theta);
    for (auto idx : d.fault.matched_fingerprints) {
      std::printf("  operation: %s\n", db->get(idx).name.c_str());
    }
    for (const auto& c : d.root_cause.causes) {
      std::printf("  root cause @ node %u: %s\n", c.node.value(),
                  c.detail.c_str());
    }
  }
  if (analyzer.diagnoses().empty()) std::printf("no faults detected\n");
  return 0;
}
