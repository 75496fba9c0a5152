// Ablation: the cost of symbol-subsequence matching (the paper offloads
// regex matching to a Perl process, §6; matching directly on symbols
// replaces it — docs/PERFORMANCE.md records the retired std::regex
// comparison), truncation, and required-literal extraction.
// google-benchmark microbenchmarks.
#include <benchmark/benchmark.h>

#include <vector>

#include "gretel/matcher.h"
#include "util/rng.h"

namespace {

using namespace gretel;
using wire::ApiId;

struct Workload {
  wire::ApiCatalog catalog;
  std::vector<ApiId> literals;
  std::vector<ApiId> snapshot;

  // literal_count literals embedded in-order in a snapshot of
  // snapshot_size symbols drawn from an OpenStack-sized alphabet.
  Workload(std::size_t literal_count, std::size_t snapshot_size) {
    for (int i = 0; i < 643; ++i) {
      catalog.add_rest(wire::ServiceKind::Nova, wire::HttpMethod::Post,
                       "/api/" + std::to_string(i));
    }
    util::Rng rng(literal_count * 1000 + snapshot_size);
    for (std::size_t i = 0; i < snapshot_size; ++i) {
      snapshot.emplace_back(
          static_cast<std::uint16_t>(rng.next_below(643)));
    }
    // Plant the literals in order at random positions.
    auto positions = rng.sample_indices(snapshot_size, literal_count);
    for (auto pos : positions) literals.push_back(snapshot[pos]);
  }
};

void BM_SubsequenceMatch(benchmark::State& state) {
  const Workload w(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  const core::Matcher matcher(&w.catalog, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.matches(w.literals, w.snapshot));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.snapshot.size()));
}

void BM_TruncateAtFirst(benchmark::State& state) {
  const Workload w(8, static_cast<std::size_t>(state.range(0)));
  const auto target = w.snapshot[w.snapshot.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Matcher::truncate_at_first(w.snapshot, target));
  }
}

void BM_RequiredLiterals(benchmark::State& state) {
  const Workload w(8, static_cast<std::size_t>(state.range(0)));
  const core::Matcher matcher(&w.catalog, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.required_literals(w.snapshot));
  }
}

}  // namespace

// Literal counts ~ state-change prefix sizes; snapshots ~ context buffers
// (β0 = 80 up to α = 768 in the paper's configuration).
BENCHMARK(BM_SubsequenceMatch)
    ->Args({4, 80})
    ->Args({16, 80})
    ->Args({4, 768})
    ->Args({16, 768})
    ->Args({64, 768});
BENCHMARK(BM_TruncateAtFirst)->Arg(100)->Arg(384);
BENCHMARK(BM_RequiredLiterals)->Arg(100)->Arg(384);

BENCHMARK_MAIN();
