// gretel_fingerprints — inspect a trained fingerprint database.
//
//   gretel_fingerprints --db fingerprints.db [--seed N] [--fraction F]
//       list                 (default: every fingerprint, one line each)
//       --show <name>        full API sequence + Algorithm-1 regex form
//       --containing <api-substring>   fingerprints using a matching API
#include <cstdio>

#include "gretel/db_io.h"
#include "gretel/symbols.h"
#include "tempest/catalog.h"
#include "tools/cli_common.h"

int main(int argc, char** argv) {
  using namespace gretel;
  const tools::Args args(argc, argv);
  const auto db_path = args.get("--db");
  if (!db_path || args.has_flag("--help")) {
    std::fprintf(stderr,
                 "usage: gretel_fingerprints --db <file> [--seed N] "
                 "[--fraction F] [--show <name>] [--containing <substr>]\n");
    return db_path ? 0 : 2;
  }

  const auto seed = args.get_uint("--seed", 0xC0DE2016ull);
  const auto catalog =
      tempest::TempestCatalog::build(seed, args.get_double("--fraction", 1.0));
  const auto db = core::load_fingerprint_db(*db_path, catalog.apis());
  if (!db) {
    std::fprintf(stderr, "error: cannot load %s (catalog mismatch?)\n",
                 db_path->c_str());
    return 1;
  }

  if (const auto show = args.get("--show")) {
    for (const auto& fp : db->all()) {
      if (fp.name != *show) continue;
      std::printf("%s (operation %u): %zu APIs, %zu state changes\n",
                  fp.name.c_str(), fp.op.value(), fp.size(),
                  fp.state_sequence.size());
      for (auto api : fp.sequence) {
        const auto& desc = catalog.apis().get(api);
        std::printf("  %c %s\n", desc.state_change() ? '*' : ' ',
                    desc.display_name().c_str());
      }
      // Algorithm-1 regular-expression form with Unicode symbols, printed
      // as escaped code points.
      const core::SymbolTable symbols(catalog.apis());
      const auto regex = fp.regex_string(symbols, catalog.apis(), true);
      std::printf("regex: ");
      for (char32_t c : regex) {
        if (c == U'*') {
          std::printf("*");
        } else {
          std::printf("\\u%04X", static_cast<unsigned>(c));
        }
      }
      std::printf("\n");
      return 0;
    }
    std::fprintf(stderr, "no fingerprint named %s\n", show->c_str());
    return 1;
  }

  const auto filter = args.get("--containing");
  std::size_t shown = 0;
  for (const auto& fp : db->all()) {
    if (filter) {
      bool hit = false;
      for (auto api : fp.sequence) {
        hit = hit || catalog.apis().get(api).display_name().find(*filter) !=
                         std::string::npos;
      }
      if (!hit) continue;
    }
    std::printf("%-24s ops=%-5u size=%-4zu state=%-4zu\n", fp.name.c_str(),
                fp.op.value(), fp.size(), fp.state_sequence.size());
    ++shown;
  }
  std::printf("%zu fingerprint(s)\n", shown);
  return 0;
}
