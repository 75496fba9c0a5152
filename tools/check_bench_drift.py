#!/usr/bin/env python3
"""Fail when a regenerated bench JSON differs from the committed one.

The campaign and stream-latency benches are deterministic: re-run at the
arguments that produced the committed BENCH_*.json, they must print the
same document apart from host facts (`meta`) and wall-clock times.  This
script compares the two files field by field, skips the dotted paths
named with --ignore, and lists every other difference.

    out=$(mktemp -d)
    ./build/bench/bench_campaigns --scenarios 500 \\
        --out "$out/BENCH_campaigns.json"
    python3 tools/check_bench_drift.py BENCH_campaigns.json \\
        "$out/BENCH_campaigns.json" --ignore meta \\
        --ignore campaign.wall_seconds

Exits 0 when the files agree, 1 on drift.  Stdlib only.
"""

import argparse
import json
import sys


def diff(committed, fresh, path, ignore, out):
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(committed.keys() | fresh.keys()):
            sub = f"{path}.{key}" if path else key
            if sub in ignore:
                continue
            if key not in fresh:
                out.append(f"{sub}: missing from the regenerated file")
            elif key not in committed:
                out.append(f"{sub}: not in the committed file")
            else:
                diff(committed[key], fresh[key], sub, ignore, out)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            out.append(f"{path}: {len(committed)} entries committed, "
                       f"{len(fresh)} regenerated")
        for i, (a, b) in enumerate(zip(committed, fresh)):
            diff(a, b, f"{path}[{i}]", ignore, out)
    elif committed != fresh:
        out.append(f"{path}: committed {committed!r}, regenerated {fresh!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("committed")
    ap.add_argument("regenerated")
    ap.add_argument("--ignore", action="append", default=[],
                    help="dotted path to skip (repeatable)")
    args = ap.parse_args()
    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.regenerated) as f:
        fresh = json.load(f)
    drift = []
    diff(committed, fresh, "", set(args.ignore), drift)
    for line in drift:
        print(f"{args.committed}: {line}")
    if drift:
        print(f"{args.committed}: {len(drift)} field(s) drifted")
        return 1
    print(f"{args.committed}: identical apart from "
          f"{', '.join(args.ignore) or 'nothing'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
