#!/usr/bin/env python3
"""Smoke test of the OLAP benchmark at a tiny row count.

Run from the repository root:

    python3 olapbench/smoke_test.py

Builds olap_bench (as run.py does), then checks that:
  - every workload run.py accepts (mem too, which BENCHMARK.json leaves
    out) completes, untraced and traced, with every answer right;
  - the untraced run prints exactly the end_to_end metrics of BENCHMARK.json
    and the traced run exactly its per_layer metrics, each with its unit;
  - the run record carries all ten end-to-end metrics of the benchmark doc;
  - a deliberately wrong expected answer is counted in `failed` and in the
    record's failed_frac.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROWS = "3000"
SECONDS = "1"
RECORD_METRICS = {"setup_s", "qps", "cube3_ms", "cube2_ms", "pivot_ms", "chain_ms",
                  "p50_ms", "p90_ms", "peak_rss_mb", "failed_frac"}


def drive(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--rows", ROWS, "--work-dir", run.WORK_DIR, *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().split("\n")
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def check_metrics(result, spec, where):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), f"{where}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name} not a number"


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    failures = []
    for workload in run.WORKLOADS:
        try:
            record, result = drive(workload, 0)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
                f"{workload}: untraced run not correct: {result}"
            check_metrics(result, bench["end_to_end"], f"{workload} --trace 0")
            assert set(record["end_to_end"]) == RECORD_METRICS, \
                f"{workload}: run record metrics {sorted(record['end_to_end'])}"
            assert all("unit" in m for m in record["end_to_end"].values())

            _, traced = drive(workload, 1)
            assert traced["correct"] and traced["failed"] == 0, \
                f"{workload}: traced run not correct: {traced}"
            check_metrics(traced, bench["per_layer"], f"{workload} --trace 1")

            record, wrong = drive(workload, 0, "--corrupt-expected")
            assert not wrong["correct"] and wrong["failed"] > 0, \
                f"{workload}: wrong expected answer not counted: {wrong}"
            assert record["end_to_end"]["failed_frac"]["value"] > 0
            print(f"ok   {workload}")
        except AssertionError as e:
            failures.append(str(e))
            print(f"FAIL {workload}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
