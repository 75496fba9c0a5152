#!/usr/bin/env python3
"""Regenerate the benchmark tables embedded in README.md and
docs/PERFORMANCE.md from the bench JSON files, so the numbers in the docs
can never drift from the numbers a bench run actually produced.

Reads BENCH_ingest.json, BENCH_match_kernels.json, BENCH_campaigns.json,
BENCH_stream_latency.json and BENCH_recovery.json (paths overridable) and rewrites the marker-delimited regions

    <!-- bench:begin -->        ... <!-- bench:end -->          (README.md)
    <!-- campaign:begin -->     ... <!-- campaign:end -->       (README.md)
    <!-- bench-tables:begin --> ... <!-- bench-tables:end -->   (PERFORMANCE.md)
    <!-- stream-latency:begin --> ... <!-- stream-latency:end --> (PERFORMANCE.md)
    <!-- recovery:begin -->     ... <!-- recovery:end -->       (PERFORMANCE.md)

in place.  Run from the repository root after re-running the bench:

    ./build/bench/bench_ingest_hotpath --events 60000
    python3 tools/render_bench_md.py

Use --check to verify the committed tables match the JSON (exits 1 on
drift) without rewriting anything.  Stdlib only.
"""

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    try:
        with path.open() as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: {path} not found — run the bench first "
                 "(./build/bench/bench_ingest_hotpath)")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")


def fmt_rate(events_per_sec: float) -> str:
    return f"{events_per_sec / 1e6:.2f} M"


def meta_line(meta: dict) -> str:
    return (f"*Measured on {meta.get('host_cpus', '?')} CPU(s), "
            f"{meta.get('compiler', 'unknown compiler')}, "
            f"{meta.get('events_measured', 0):,} events per measurement "
            f"(schema v{meta.get('schema_version', '?')}).  Generated by "
            f"`tools/render_bench_md.py` — do not edit by hand.*")


# Per-kernel display labels; anything not listed falls back to the raw name.
_KERNEL_LABELS = {
    "subsequence_match": "subsequence match (Alg. 2, 16 lits / α=768)",
    "error_scan": "error-flag scan (2α window, ~1% density)",
    "truncate_at_last": "truncation find-last (α=768)",
    "levelshift_refresh": "level-shift refresh (in-place vs sort-copy)",
}


def render_readme(ingest: dict, kernels: dict) -> str:
    """Compact summary for the README: decode rate + kernel speedups."""
    d = ingest["decode_resolve"]
    lines = [
        "| benchmark | result |",
        "|---|---|",
        (f"| decode+resolve (arena + view hot path) | "
         f"{fmt_rate(d['hotpath']['events_per_sec'])} events/s, "
         f"{d['hotpath']['allocs_per_event']:.0f} allocs/event |"),
    ]
    for row in ingest["ingest"]:
        lines.append(
            f"| detector ingest (pre-decoded, fault-free), "
            f"{row['mode'].replace('_', '-')} | "
            f"{fmt_rate(row['events_per_sec'])} events/s |")
    family = kernels["simd"]["compiled_kernel"]
    ker = {k["name"]: k for k in kernels["kernels"]}
    lines += [
        "",
        (f"Match/scan kernels ({family} vs scalar reference): "
         f"subsequence match "
         f"**{ker['subsequence_match']['speedup']:.2f}×**, "
         f"error scan **{ker['error_scan']['speedup']:.2f}×**, "
         f"truncation **{ker['truncate_at_last']['speedup']:.2f}×**; "
         f"detector output identical across kernel families: "
         f"**{'yes' if kernels['results_identical'] else 'NO'}**."),
        "",
        meta_line(ingest["meta"]),
    ]
    return "\n".join(lines)


def render_performance(ingest: dict) -> str:
    """Full tables for docs/PERFORMANCE.md."""
    d = ingest["decode_resolve"]
    lines = [
        "### Decode + resolve",
        "",
        "| path | events/s | allocs/event |",
        "|---|---:|---:|",
        (f"| hot path (arena + `string_view`, transparent lookup) | "
         f"{d['hotpath']['events_per_sec']:,.0f} | "
         f"{d['hotpath']['allocs_per_event']:.3f} |"),
        "",
        f"Steady-state allocations per event on the hot path: "
        f"**{ingest['steady_state_allocs_per_event']:.3f}** (the bench "
        f"exits 2 above 0).",
        "",
        "### Detector ingest (pre-decoded, fault-free pool)",
        "",
        "| mode | events/s |",
        "|---|---:|",
    ]
    for row in ingest["ingest"]:
        lines.append(
            f"| {row['mode'].replace('_', '-')} | "
            f"{row['events_per_sec']:,.0f} |")
    lines += [
        "",
        meta_line(ingest["meta"]),
    ]
    return "\n".join(lines)


def render_kernels(kernels: dict) -> str:
    """Kernel A/B table for the PERFORMANCE.md kernel-cost section."""
    family = kernels["simd"]["compiled_kernel"]
    lines = [
        f"Compiled kernel family: **{family}**.  Both columns run the same "
        "surrounding code; the scalar column forces every `util/simd.h` "
        "kernel onto its reference implementation via "
        "`simd::set_force_scalar(true)`.",
        "",
        f"| hot loop | {family} ns/op | baseline ns/op | speedup |",
        "|---|---:|---:|---:|",
    ]
    for k in kernels["kernels"]:
        label = _KERNEL_LABELS.get(k["name"], k["name"])
        lines.append(
            f"| {label} | {k['ns_per_op']:,.1f} | "
            f"{k['baseline_ns_per_op']:,.1f} | {k['speedup']:.2f}× |")
    lines += [
        "",
        (f"Cross-check on the bench inputs — kernel families return "
         f"identical results: "
         f"**{'yes' if kernels['results_identical'] else 'NO'}**."),
        "",
        meta_line(kernels["meta"]),
    ]
    return "\n".join(lines)


def render_campaign(campaigns: dict) -> str:
    """Per-fault-class coverage table for the README campaign section."""
    c = campaigns["campaign"]
    s = campaigns["summary"]
    lines = [
        (f"{s['scenarios']} scenarios from campaign seed "
         f"`0x{c['seed']:X}`, {c['budget_events']:,}-event budget, "
         f"{c['recheck']} scenarios re-run for determinism "
         f"({c['recheck_failures']} mismatches)."),
        "",
        "| fault class | runs | localized | missed | misattributed | "
        "crashed | failure modes |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for row in s["per_class"]:
        lines.append(
            f"| {row['class'].replace('_', '-')} | {row['scenarios']} | "
            f"{row['localized']} | {row['missed']} | "
            f"{row['misattributed']} | {row['crashed']} | "
            f"{row['distinct_fingerprints']} |")
    o = s["outcomes"]
    lines += [
        "",
        (f"Overall: **{100.0 * s['localized_fraction']:.1f}% localized** "
         f"({o['localized']}/{s['scenarios']}; {o['missed']} missed, "
         f"{o['misattributed']} misattributed, {o['crashed']} crashed), "
         f"{s['distinct_fingerprints']} distinct report fingerprints "
         f"({s['singleton_fingerprints']} singleton)."),
        "",
        meta_line(campaigns["meta"]),
    ]
    return "\n".join(lines)


def render_stream(stream: dict) -> str:
    """Fault-to-report latency table for the PERFORMANCE.md budget section."""
    st = stream["stream"]
    lat = stream["latency_ms"]
    ov = stream["overload"]
    lines = [
        (f"{st['runs']} runs x {st['faults_total'] // st['runs']} injected "
         f"faults, {st['tick_ms']:.0f} ms tick: "
         f"**{st['faults_detected']}/{st['faults_total']} detected** "
         f"({100.0 * st['detected_fraction']:.0f}%), "
         f"{st['ticks']:,} ticks over {st['offered']:,} offered records, "
         f"{st['flow_mismatches']} flow-ledger mismatches."),
        "",
        "| metric | value |",
        "|---|---:|",
        f"| fault -> first report, p50 | {lat['p50']:,.0f} ms |",
        f"| fault -> first report, p95 | {lat['p95']:,.0f} ms |",
        f"| fault -> first report, p99 | {lat['p99']:,.0f} ms |",
        f"| fault -> first report, max | {lat['max']:,.0f} ms |",
        (f"| peak analyzer state (steady run) | "
         f"{stream['peak_state_bytes'] / 1048576.0:.2f} MiB |"),
        (f"| overload leg ({ov['ring']}-slot ring) | "
         f"shed {ov['shed']:,}/{ov['offered']:,} in "
         f"{ov['shed_episodes']} episodes, ledger "
         f"{'exact' if ov['reconciled'] else 'BROKEN'}, peak state "
         f"{ov['peak_state_bytes'] / 1048576.0:.2f} MiB |"),
        "",
        meta_line(stream["meta"]),
    ]
    return "\n".join(lines)


def render_recovery(recovery: dict) -> str:
    """Durability-cost table for the PERFORMANCE.md recovery section."""
    ckp = recovery["checkpoint"]
    rec = recovery["recovery"]
    hist = recovery["reports_lost_histogram"]
    lost_total = sum(int(lost) * n for lost, n in hist.items())
    hist_str = ", ".join(
        f"{n} round(s) lost {lost}" for lost, n in sorted(
            hist.items(), key=lambda kv: int(kv[0])))
    lines = [
        (f"{rec['rounds']} kill rounds ({rec['crashes']} crashes fired, "
         f"{rec['recovered']} restored from a checkpoint): "
         f"**{rec['invariant_failures']} invariant failures**, "
         f"**{lost_total} journaled reports lost** ({hist_str})."),
        "",
        "| metric | value |",
        "|---|---:|",
        (f"| checkpoint write ({ckp['writes']} forced), p50 | "
         f"{ckp['write_ms_p50']:.2f} ms |"),
        (f"| checkpoint write, p95 / max | {ckp['write_ms_p95']:.2f} / "
         f"{ckp['write_ms_max']:.2f} ms |"),
        (f"| checkpoint file size | {ckp['state_bytes_min']:,} – "
         f"{ckp['state_bytes_max']:,} B |"),
        f"| restore(), p50 | {rec['recovery_ms_p50']:.2f} ms |",
        (f"| restore(), p99 / max | {rec['recovery_ms_p99']:.2f} / "
         f"{rec['recovery_ms_max']:.2f} ms |"),
        (f"| restored state, max | "
         f"{rec['restored_state_bytes_max']:,} B |"),
        "",
        meta_line(recovery["meta"]),
    ]
    return "\n".join(lines)


def splice(path: Path, begin: str, end: str, body: str, check: bool) -> bool:
    """Replace the text between the markers.  Returns True if changed."""
    text = path.read_text()
    try:
        head, rest = text.split(begin, 1)
        _, tail = rest.split(end, 1)
    except ValueError:
        sys.exit(f"error: {path} lacks the markers {begin!r} / {end!r}")
    updated = f"{head}{begin}\n{body}\n{end}{tail}"
    if updated == text:
        return False
    if check:
        print(f"DRIFT: {path} does not match the bench JSON", file=sys.stderr)
        return True
    path.write_text(updated)
    print(f"updated {path}")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ingest", type=Path, default=Path("BENCH_ingest.json"))
    ap.add_argument("--kernels", type=Path,
                    default=Path("BENCH_match_kernels.json"))
    ap.add_argument("--campaigns", type=Path,
                    default=Path("BENCH_campaigns.json"))
    ap.add_argument("--stream", type=Path,
                    default=Path("BENCH_stream_latency.json"))
    ap.add_argument("--recovery", type=Path,
                    default=Path("BENCH_recovery.json"))
    ap.add_argument("--readme", type=Path, default=Path("README.md"))
    ap.add_argument("--performance", type=Path,
                    default=Path("docs/PERFORMANCE.md"))
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if the docs do not match the JSON")
    args = ap.parse_args()

    ingest = load(args.ingest)
    kernels = load(args.kernels)
    campaigns = load(args.campaigns)
    stream = load(args.stream)
    recovery = load(args.recovery)

    drift = False
    drift |= splice(args.readme, "<!-- bench:begin -->", "<!-- bench:end -->",
                    render_readme(ingest, kernels), args.check)
    drift |= splice(args.performance, "<!-- bench-tables:begin -->",
                    "<!-- bench-tables:end -->",
                    render_performance(ingest), args.check)
    drift |= splice(args.performance, "<!-- kernel-tables:begin -->",
                    "<!-- kernel-tables:end -->",
                    render_kernels(kernels), args.check)
    drift |= splice(args.readme, "<!-- campaign:begin -->",
                    "<!-- campaign:end -->",
                    render_campaign(campaigns), args.check)
    drift |= splice(args.performance, "<!-- stream-latency:begin -->",
                    "<!-- stream-latency:end -->",
                    render_stream(stream), args.check)
    drift |= splice(args.performance, "<!-- recovery:begin -->",
                    "<!-- recovery:end -->",
                    render_recovery(recovery), args.check)
    if args.check:
        if drift:
            return 1
        print("docs match the bench JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
