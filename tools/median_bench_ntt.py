#!/usr/bin/env python3
"""Merge repeated bench_fig5_ntt --json runs into one file of medians.

    python3 tools/median_bench_ntt.py OUT.json RUN1.json RUN2.json ...

The runs must come from one binary on one host (for example several
runs alternated with another build), so they share one structure: the
same keys and the same rows in the same order. Each "results" row is
copied whole from the run whose radix4_ns/radix2_ns ratio for that row
is the median (the lower middle one for an even count), so the two
shapes check_default_fusion.py compares still come from one run. Every
other number is the median of that number across the runs, so a
derived field such as batch_speedup is the median of the per-run
values, not a ratio of medians; a string the runs disagree on (such as
batch_backend) is the most common value. OUT.json records the run
count as "median_of_runs".
"""

import argparse
import collections
import json
import statistics
import sys


def merge(values, where):
    first = values[0]
    if isinstance(first, dict):
        keys = list(first)
        for v in values[1:]:
            if not isinstance(v, dict) or list(v) != keys:
                raise ValueError(f"{where}: runs differ in keys")
        return {k: merge([v[k] for v in values], f"{where}.{k}") for k in keys}
    if isinstance(first, list):
        for v in values[1:]:
            if not isinstance(v, list) or len(v) != len(first):
                raise ValueError(f"{where}: runs differ in length")
        return [merge([v[i] for v in values], f"{where}[{i}]")
                for i in range(len(first))]
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median_low(values)
    return collections.Counter(values).most_common(1)[0][0]


def median_ratio_row(rows, where):
    """The row whose radix4/radix2 ratio is the median across runs."""
    for r in rows[1:]:
        if (r["backend"], r["n"]) != (rows[0]["backend"], rows[0]["n"]):
            raise ValueError(f"{where}: runs differ in rows")
    ranked = sorted(rows, key=lambda r: r["radix4_ns"] / r["radix2_ns"])
    return ranked[(len(ranked) - 1) // 2]


def dump(doc):
    """The bench's layout: one top-level key per line, one row per line."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join("    " + json.dumps(row) for row in value)
            lines.append(f"  {json.dumps(key)}: [\n{rows}\n  ]")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_json")
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args()

    runs = []
    for path in args.runs:
        with open(path) as f:
            runs.append(json.load(f))
    try:
        merged = merge(runs, "$")
        results = [r["results"] for r in runs]
        if any(len(r) != len(results[0]) for r in results):
            raise ValueError("$.results: runs differ in length")
        merged["results"] = [
            median_ratio_row([r[i] for r in results], f"$.results[{i}]")
            for i in range(len(results[0]))]
    except ValueError as e:
        print(f"median_bench_ntt: {e}", file=sys.stderr)
        return 1
    merged["median_of_runs"] = len(runs)
    with open(args.out_json, "w") as f:
        f.write(dump(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
