// Match/scan kernel microbenchmarks: the SIMD hot loops of the analysis
// path against their scalar reference twins, measured in one process via
// the simd::set_force_scalar escape hatch (so both families run the exact
// same code paths around the kernel).
//
// Measured claims, recorded in BENCH_match_kernels.json:
//  1. subsequence-match (Alg. 2 inner loop) — SIMD skip-ahead vs scalar
//     two-pointer walk over an α-sized snapshot.
//  2. error-scan — collecting error positions from a 2α window's flag
//     column via find_first_set_u8 vs the per-element scalar walk.
//  3. find-last / truncation — one truncate_at_last over an α snapshot.
//  4. level-shift refresh — nth_element in-place median/MAD vs the
//     sort-based copies, on a baseline window of 64 samples.
// Each section also cross-checks that the two kernel families return
// identical results on the bench inputs (a cheap determinism anchor; the
// exhaustive contract lives in tests/util/simd_test.cpp).
//
// Usage: bench_match_kernels [--out PATH] [--iters N] [--tripwire]
//   --tripwire  exit non-zero unless subsequence-match and error-scan hit
//               >= 2x over scalar — skipped when the binary's kernel family
//               is already scalar (nothing to compare).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gretel/matcher.h"
#include "tools/cli_common.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"

namespace {

using namespace gretel;
using wire::ApiId;

// Sink defeating dead-code elimination without fencing the pipeline.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Best-of-5 timing: ns per call of `fn` over `iters` calls.  Best-of (not
// mean) because the container shares one core — the fastest repetition is
// the least-perturbed one.
template <typename Fn>
double measure_ns(std::size_t iters, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / static_cast<double>(iters);
}

// α-sized snapshot over the full Tempest-scale alphabet with `nlit`
// literals planted in order — the Alg. 2 shape.
struct MatchWorkload {
  wire::ApiCatalog catalog;
  std::vector<ApiId> literals;
  std::vector<ApiId> snapshot;

  MatchWorkload(std::size_t nlit, std::size_t nsnap, std::uint64_t seed) {
    for (int i = 0; i < 643; ++i) {
      catalog.add_rest(wire::ServiceKind::Nova, wire::HttpMethod::Post,
                       "/api/" + std::to_string(i));
    }
    util::Rng rng(seed);
    for (std::size_t i = 0; i < nsnap; ++i) {
      snapshot.emplace_back(static_cast<std::uint16_t>(rng.next_below(643)));
    }
    auto positions = rng.sample_indices(nsnap, nlit);
    for (auto pos : positions) literals.push_back(snapshot[pos]);
  }
};

struct Pair {
  double simd_ns = 0.0;
  double scalar_ns = 0.0;
  double speedup() const {
    return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  }
};

// Times `fn` under the compiled kernel family and again with every kernel
// forced onto its scalar reference.
template <typename Fn>
Pair ab_measure(std::size_t iters, Fn&& fn) {
  Pair p;
  simd::set_force_scalar(false);
  p.simd_ns = measure_ns(iters, fn);
  simd::set_force_scalar(true);
  p.scalar_ns = measure_ns(iters, fn);
  simd::set_force_scalar(false);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  const std::string out_path =
      args.get("--out").value_or("BENCH_match_kernels.json");
  const std::size_t iters = args.get_uint("--iters", 20'000);
  const bool tripwire = args.has_flag("--tripwire");

  bench::print_header("Match/scan kernels: SIMD vs scalar reference");
  std::printf("kernel family compiled into this binary: %s\n\n",
              simd::compiled_kernel());

  bool identical = true;

  // --- 1. subsequence match (Alg. 2 inner loop), α = 768, 16 literals ---
  const MatchWorkload w(16, 768, 0x5EED);
  const core::Matcher matcher(&w.catalog, true);
  {
    simd::set_force_scalar(false);
    const bool a = matcher.matches(w.literals, w.snapshot);
    simd::set_force_scalar(true);
    const bool b = matcher.matches(w.literals, w.snapshot);
    simd::set_force_scalar(false);
    identical = identical && a == b && a;
  }
  const auto subsequence = ab_measure(iters, [&] {
    g_sink = g_sink + (matcher.matches(w.literals, w.snapshot) ? 1 : 0);
  });

  // --- 2. error scan over a 2α window flag column, ~1% error density ---
  std::vector<std::uint8_t> err(1536, 0);
  {
    util::Rng rng(0xE44);
    for (auto& f : err) f = rng.next_below(100) == 0 ? 1 : 0;
  }
  const auto scan_errors = [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < err.size(); ++i) {
      const auto hit = simd::find_first_set_u8(err.data() + i,
                                               err.size() - i);
      if (hit == simd::npos) break;
      i += hit;
      acc += i;
    }
    return acc;
  };
  {
    simd::set_force_scalar(false);
    const auto a = scan_errors();
    simd::set_force_scalar(true);
    const auto b = scan_errors();
    simd::set_force_scalar(false);
    identical = identical && a == b;
  }
  const auto error_scan =
      ab_measure(iters, [&] { g_sink = g_sink + scan_errors(); });

  // --- 3. truncation: find_last_eq over an α snapshot ---
  const auto needle = w.snapshot[w.snapshot.size() / 3];
  {
    simd::set_force_scalar(false);
    const auto a = core::Matcher::truncate_at_last(w.snapshot, needle).size();
    simd::set_force_scalar(true);
    const auto b = core::Matcher::truncate_at_last(w.snapshot, needle).size();
    simd::set_force_scalar(false);
    identical = identical && a == b;
  }
  const auto truncate = ab_measure(iters, [&] {
    g_sink = g_sink + (core::Matcher::truncate_at_last(w.snapshot, needle).size());
  });

  // --- 4. level-shift refresh: in-place vs sort-based estimators ---
  std::vector<double> baseline(64);
  {
    util::Rng rng(0x1EE7);
    for (auto& x : baseline) x = 10.0 + rng.next_double();
  }
  std::vector<double> scratch;
  {
    scratch = baseline;
    const double a = util::median(baseline) + util::mad_sigma(baseline);
    const double b = util::median_inplace(scratch) +
                     [&] {
                       scratch = baseline;
                       return util::mad_sigma_inplace(scratch);
                     }();
    identical = identical && a == b;
  }
  const std::size_t ls_iters = std::max<std::size_t>(1, iters / 4);
  const double refresh_sorted_ns = measure_ns(ls_iters, [&] {
    std::vector<double> v(baseline.begin(), baseline.end());
    const double med = util::median(v);
    const double sig = util::mad_sigma(v);
    g_sink = g_sink + (static_cast<std::uint64_t>(med + sig));
  });
  const double refresh_inplace_ns = measure_ns(ls_iters, [&] {
    scratch.assign(baseline.begin(), baseline.end());
    const double med = util::median_inplace(scratch);
    scratch.assign(baseline.begin(), baseline.end());
    const double sig = util::mad_sigma_inplace(scratch);
    g_sink = g_sink + (static_cast<std::uint64_t>(med + sig));
  });
  const double refresh_speedup =
      refresh_inplace_ns > 0.0 ? refresh_sorted_ns / refresh_inplace_ns : 0.0;

  std::printf("%-28s %12s %12s %9s\n", "microbench", "simd ns/op",
              "scalar ns/op", "speedup");
  std::printf("%-28s %12.1f %12.1f %8.2fx\n",
              "subsequence_match(16,768)", subsequence.simd_ns,
              subsequence.scalar_ns, subsequence.speedup());
  std::printf("%-28s %12.1f %12.1f %8.2fx\n", "error_scan(1536,1%)",
              error_scan.simd_ns, error_scan.scalar_ns, error_scan.speedup());
  std::printf("%-28s %12.1f %12.1f %8.2fx\n", "truncate_at_last(768)",
              truncate.simd_ns, truncate.scalar_ns, truncate.speedup());
  std::printf("%-28s %12.1f %12.1f %8.2fx  (inplace vs sorted)\n",
              "levelshift_refresh(64)", refresh_inplace_ns, refresh_sorted_ns,
              refresh_speedup);
  std::printf("cross-check simd == scalar results: %s\n\n",
              identical ? "identical" : "DIVERGED");

  bench::BenchRunMeta meta;
  meta.benchmark = "match_kernels";
  meta.events_measured = iters;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  write_bench_meta(f, meta);
  std::fprintf(f, ",\n");
  std::fprintf(f, "  \"simd\": {\"compiled_kernel\": \"%s\"},\n",
               simd::compiled_kernel());
  std::fprintf(f, "  \"results_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  struct Row {
    const char* name;
    double fast_ns;
    double slow_ns;
    double speedup;
    const char* baseline;
  };
  const Row rows[] = {
      {"subsequence_match", subsequence.simd_ns, subsequence.scalar_ns,
       subsequence.speedup(), "scalar"},
      {"error_scan", error_scan.simd_ns, error_scan.scalar_ns,
       error_scan.speedup(), "scalar"},
      {"truncate_at_last", truncate.simd_ns, truncate.scalar_ns,
       truncate.speedup(), "scalar"},
      {"levelshift_refresh", refresh_inplace_ns, refresh_sorted_ns,
       refresh_speedup, "sort_copy"},
  };
  constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"baseline\": \"%s\", \"baseline_ns_per_op\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 rows[i].name, rows[i].fast_ns, rows[i].baseline,
                 rows[i].slow_ns, rows[i].speedup, i + 1 < kRows ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "kernel families DIVERGED on bench inputs\n");
    return 2;
  }

  if (tripwire) {
    if (std::strcmp(simd::compiled_kernel(), "scalar") == 0) {
      std::printf("tripwire: scalar-only build, speedup floor skipped\n");
      return 0;
    }
    const double floor = 2.0;
    std::printf("tripwire: subsequence %.2fx, error_scan %.2fx "
                "(floor %.2fx)\n",
                subsequence.speedup(), error_scan.speedup(), floor);
    if (subsequence.speedup() < floor || error_scan.speedup() < floor) {
      std::fprintf(stderr,
                   "tripwire FAILED: SIMD kernels below %.1fx over scalar "
                   "(subsequence %.2fx, error_scan %.2fx)\n",
                   floor, subsequence.speedup(), error_scan.speedup());
      return 2;
    }
  }
  return 0;
}
