// gretel_train — offline fingerprint learning (§5, §7.1).
//
// Builds the Tempest-like catalog, runs every operation in isolation
// against the simulated deployment, learns the fingerprints (Algorithm 1),
// prints the Table-1-style characterization, and saves the database for
// gretel_analyze.
//
//   gretel_train --out fingerprints.db [--fraction 1.0] [--seed N]
//                [--repeats 3]
#include <cstdio>

#include "gretel/db_io.h"
#include "gretel/training.h"
#include "tools/cli_common.h"

int main(int argc, char** argv) {
  using namespace gretel;
  const tools::Args args(argc, argv);
  const auto out = args.get("--out");
  if (!out || args.has_flag("--help")) {
    std::fprintf(stderr,
                 "usage: gretel_train --out <file> [--fraction F] "
                 "[--seed N] [--repeats R]\n");
    return out ? 0 : 2;
  }

  const auto seed = args.get_uint("--seed", 0xC0DE2016ull);
  const double fraction = args.get_double("--fraction", 1.0);

  const auto catalog = tempest::TempestCatalog::build(seed, fraction);
  auto deployment = stack::Deployment::standard(3);

  core::TrainingOptions options;
  options.repeats = static_cast<int>(args.get_int("--repeats", 3));
  const auto report = core::learn_fingerprints(catalog, deployment, options);

  std::printf("%-10s %6s %10s %10s %10s %10s\n", "Category", "Tests",
              "uniq RPC", "uniq REST", "FP w/RPC", "FP w/o");
  for (std::size_t c = 0; c < stack::kCategories; ++c) {
    const auto& s = report.per_category[c];
    std::printf("%-10s %6d %10zu %10zu %10.1f %10.1f\n",
                std::string(to_string(static_cast<stack::Category>(c)))
                    .c_str(),
                s.tests, s.unique_rpc.size(), s.unique_rest.size(),
                s.avg_fingerprint(), s.avg_fingerprint_norpc());
  }
  std::printf("FPmax = %zu over %zu fingerprints\n", report.fp_max,
              report.db.size());

  if (!core::save_fingerprint_db(*out, report.db, catalog.apis())) {
    std::fprintf(stderr, "error: could not write %s\n", out->c_str());
    return 1;
  }
  std::printf("fingerprint database written to %s\n", out->c_str());
  return 0;
}
