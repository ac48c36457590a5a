#!/usr/bin/env python3
"""Check that every StageFusion::Auto default is the measured winner.

    python3 tools/check_default_fusion.py BENCH_ntt.json [--tolerance 0.03]

Each "results" row of bench_fig5_ntt --json carries radix2_ns, radix4_ns
and default_fusion (the shape ntt::resolveStageFusion picks for that
backend and n). The check fails when a row's default is more than the
tolerance slower than the faster of the two shapes measured in the same
run, so the dispatch defaults cannot drift from the data.
"""

import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench_json")
    ap.add_argument("--tolerance", type=float, default=0.03)
    args = ap.parse_args()

    with open(args.bench_json) as f:
        rows = json.load(f)["results"]
    bad = 0
    for row in rows:
        default = row["default_fusion"]
        ns = {"radix2": row["radix2_ns"], "radix4": row["radix4_ns"]}
        fastest = min(ns, key=ns.get)
        excess = ns[default] / ns[fastest] - 1.0
        verdict = "ok" if excess <= args.tolerance else "SLOWER"
        bad += verdict != "ok"
        print(f"{row['backend']:>9} n={row['n']:>6}: default {default} "
              f"{ns[default]:.0f} ns, fastest {fastest} {ns[fastest]:.0f} ns "
              f"(+{100 * excess:.1f}%) {verdict}")
    if bad:
        print(f"{bad} default(s) more than {100 * args.tolerance:.0f}% "
              "slower than the fastest measured shape", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
