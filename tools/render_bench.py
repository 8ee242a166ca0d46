#!/usr/bin/env python3
"""Renders a BENCH_*.json record (bench/bench_util.h --json_out) as a
markdown table for EXPERIMENTS.md, so the numbers in the docs come from the
record and not from a separate run.

    python3 tools/render_bench.py BENCH_e11.json \
        --counters detail_rows_scanned,blocks_pruned

Columns: the benchmark name (google-benchmark's /min_time and /real_time
suffixes dropped), mean / min / sample stddev in ms over the repetitions,
the repetition count, then each requested counter (blank where a record
lacks it). A line under the table names the records' git SHA, build type,
nproc and timestamp.
"""

import argparse
import json
import re


def short_name(name):
    return re.sub(r"/(min_time:[^/]*|real_time)", "", name)


def fmt(value):
    if value is None:
        return ""
    if float(value).is_integer() or abs(value) >= 1000:
        return f"{round(value):,}".replace(",", " ")
    return f"{value:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="BENCH_*.json written by --json_out")
    parser.add_argument("--counters", default="",
                        help="comma-separated counters to add as columns")
    args = parser.parse_args()
    with open(args.record) as f:
        records = json.load(f)
    counters = [c for c in args.counters.split(",") if c]
    header = ["benchmark", "mean ms", "min ms", "stddev ms", "reps"] + counters
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for r in records:
        row = [f"`{short_name(r['name'])}`",
               f"{r['ns_per_op'] / 1e6:.3f}",
               f"{r.get('ns_per_op_min', r['ns_per_op']) / 1e6:.3f}",
               f"{r.get('ns_per_op_stddev', 0) / 1e6:.3f}",
               str(r.get("repetitions", 1))]
        row += [fmt(r.get(c)) for c in counters]
        print("| " + " | ".join(row) + " |")
    stamps = sorted({(r.get("git_sha", "?"), r.get("build_type", "?"),
                      r.get("nproc", "?"), r.get("timestamp", "?")) for r in records})
    for sha, build, nproc, ts in stamps:
        print(f"\nRecord: git {sha}, {build} build, nproc = {nproc}, {ts}.")


if __name__ == "__main__":
    main()
