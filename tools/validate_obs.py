#!/usr/bin/env python3
"""Validates the observability artifacts of one instrumented CLI run.

Usage:
    validate_obs.py [--trace TRACE.json] [--metrics METRICS.json]
                    [--explain EXPLAIN.txt] [--query-log QLOG.jsonl]
                    [--schema obs_schema.json]
                    [--min-tracks N] [--expect-parallel] [--expect-server]
                    [--expect-analysis] [--expect-storage] [--expect-stats]

At least one artifact flag (--trace / --metrics / --explain / --query-log)
is required.
Checks, in order:
  1. The trace file (--trace) parses and conforms to tools/obs_schema.json
     (full jsonschema validation when the module is available, a structural
     fallback otherwise).
  2. The trace's content is a real engine run: per-thread tracks with
     thread_name metadata, morsel spans inside worker.scan spans, and (with
     --expect-parallel) steal_wait instants plus at least --min-tracks
     distinct event tracks.
  3. The metrics dump (--metrics, JSON form) carries the MD-join scan
     counters with coherent values (scanned >= qualified,
     candidates >= matched). With --expect-server, additionally requires
     every query-service metric named in the schema's serverMetrics annex,
     with coherent values (queries admitted, cache outcomes summing to at
     most the query count, gauges drained back to zero).
  4. The EXPLAIN ANALYZE output (--explain) shows an annotated per-operator
     plan that reached a terminal event.

Exit code 0 when everything holds; 1 with a list of failures otherwise.
Used by the CI observability and service-stress jobs; handy locally after
any change to the trace/metrics emitters or the server metric catalog.
"""

import argparse
import json
import os
import sys

ERRORS = []


def fail(msg):
    ERRORS.append(msg)


def check(cond, msg):
    if not cond:
        fail(msg)
    return cond


def validate_schema(trace, schema_path):
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except OSError as e:
        fail(f"cannot read schema {schema_path}: {e}")
        return
    try:
        import jsonschema
    except ImportError:
        # Structural fallback mirroring the schema's hard requirements.
        if not check(isinstance(trace, dict) and "traceEvents" in trace,
                     "trace: missing top-level traceEvents"):
            return
        for i, e in enumerate(trace["traceEvents"]):
            ctx = f"trace: event {i}"
            check(isinstance(e, dict), f"{ctx}: not an object")
            for key in ("name", "ph", "pid", "tid"):
                check(key in e, f"{ctx}: missing '{key}'")
            ph = e.get("ph")
            check(ph in ("X", "i", "M"), f"{ctx}: bad ph {ph!r}")
            if ph == "X":
                check("ts" in e and "dur" in e, f"{ctx}: X event without ts/dur")
                check(e.get("dur", 0) >= 0, f"{ctx}: negative duration")
            elif ph == "i":
                check("ts" in e, f"{ctx}: instant without ts")
            elif ph == "M":
                check(e.get("name") == "thread_name",
                      f"{ctx}: unexpected metadata {e.get('name')!r}")
                check("name" in e.get("args", {}),
                      f"{ctx}: thread_name without args.name")
        return
    try:
        jsonschema.validate(trace, schema)
    except jsonschema.ValidationError as e:
        fail(f"trace: schema violation at {list(e.absolute_path)}: {e.message}")


def validate_trace_content(trace, min_tracks, expect_parallel):
    events = trace.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    meta = [e for e in events if e.get("ph") == "M"]

    check(spans, "trace: no spans at all")
    names = {e["name"] for e in spans}
    check("scan_range" in names, "trace: no scan_range span (detail scan untraced)")

    named_tracks = {e["tid"] for e in meta}
    event_tracks = {e["tid"] for e in spans + instants}
    check(event_tracks <= named_tracks or not meta,
          f"trace: events on unnamed tracks {sorted(event_tracks - named_tracks)}")

    if expect_parallel:
        check("morsel" in names, "trace: no morsel spans (parallel scan untraced)")
        check("worker.scan" in names, "trace: no worker.scan spans")
        check(any(e["name"] == "steal_wait" for e in instants),
              "trace: no steal_wait instants")
        check(len(event_tracks) >= min_tracks,
              f"trace: {len(event_tracks)} event track(s), want >= {min_tracks}")
        # Morsel spans nest inside their worker's scan span on the same track.
        worker_tids = {e["tid"] for e in spans if e["name"] == "worker.scan"}
        morsel_tids = {e["tid"] for e in spans if e["name"] == "morsel"}
        check(morsel_tids <= worker_tids,
              "trace: morsel spans on tracks without a worker.scan span")


REQUIRED_COUNTERS = [
    "mdjoin_detail_rows_scanned_total",
    "mdjoin_detail_rows_qualified_total",
    "mdjoin_candidate_pairs_total",
    "mdjoin_matched_pairs_total",
]


def server_metric_names(schema_path):
    """The query-service metric catalog from the schema's serverMetrics annex."""
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"metrics: cannot read serverMetrics annex from {schema_path}: {e}")
        return []
    names = schema.get("serverMetrics", {}).get("names", [])
    check(names, f"metrics: {schema_path} has no serverMetrics.names annex")
    return names


def validate_server_metrics(metrics, schema_path):
    for name in server_metric_names(schema_path):
        check(name in metrics, f"metrics: missing server metric {name}")

    def scalar(name):
        v = metrics.get(name, 0)
        return v if isinstance(v, (int, float)) else 0

    admitted = scalar("mdjoin_server_admitted_total")
    queries = scalar("mdjoin_server_queries_total")
    check(queries > 0, "metrics: no queries went through the service")
    check(admitted > 0, "metrics: service ran queries but admitted none")
    # Every query ends as exactly one cache outcome (or ran with the cache
    # off), so the outcomes can never outnumber the queries.
    outcomes = (scalar("mdjoin_server_cache_hit_total")
                + scalar("mdjoin_server_cache_rollup_hit_total")
                + scalar("mdjoin_server_cache_miss_total"))
    check(outcomes <= queries, "metrics: cache outcomes exceed query count")
    # A histogram renders as an object; its count is the number of admission
    # waits measured, which admitted queries (fast path included) all record.
    wait = metrics.get("mdjoin_server_admission_wait_ms")
    if isinstance(wait, dict):
        check(wait.get("count", 0) >= admitted,
              "metrics: admission wait histogram missing admitted queries")
    # In-use gauges must drain back to zero once the run is over — a nonzero
    # residue means a ticket/guard leak.
    for gauge in ("mdjoin_server_queue_depth", "mdjoin_server_memory_in_use_bytes",
                  "mdjoin_server_threads_in_use", "mdjoin_server_queries_active",
                  "mdjoin_server_sessions_open"):
        check(scalar(gauge) == 0, f"metrics: {gauge} did not drain to 0 after the run")


def storage_metric_names(schema_path):
    """The out-of-core storage metric family from the storageMetrics annex."""
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"metrics: cannot read storageMetrics annex from {schema_path}: {e}")
        return []
    names = schema.get("storageMetrics", {}).get("names", [])
    check(names, f"metrics: {schema_path} has no storageMetrics.names annex")
    return names


def validate_storage_metrics(metrics, schema_path):
    for name in storage_metric_names(schema_path):
        check(name in metrics, f"metrics: missing storage metric {name}")

    def scalar(name):
        v = metrics.get(name, 0)
        return v if isinstance(v, (int, float)) else 0

    reads = scalar("mdjoin_blocks_read_total")
    faults = scalar("mdjoin_blocks_faulted_total")
    check(reads > 0, "metrics: no storage blocks read — did a paged scan run?")
    # Every read is either a decoder run (fault) or a cache hit, never both.
    check(reads >= faults, "metrics: blocks faulted exceed blocks read")
    # Every decode verifies and decodes at least one column chunk.
    check(scalar("mdjoin_column_chunks_decoded_total") >= faults,
          "metrics: fewer column chunks decoded than blocks faulted")
    for name in ("mdjoin_blocks_pruned_total", "mdjoin_block_cache_bytes",
                 "mdjoin_block_cache_hit_total", "mdjoin_block_cache_miss_total",
                 "mdjoin_block_cache_evictions_total", "mdjoin_spill_bytes_total",
                 "mdjoin_spill_partitions_total"):
        check(scalar(name) >= 0, f"metrics: negative {name}")


def analysis_metric_names(schema_path):
    """The static-analysis metric family from the schema's analysisMetrics annex."""
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"metrics: cannot read analysisMetrics annex from {schema_path}: {e}")
        return []
    names = schema.get("analysisMetrics", {}).get("names", [])
    check(names, f"metrics: {schema_path} has no analysisMetrics.names annex")
    return names


def validate_analysis_metrics(metrics, schema_path):
    names = analysis_metric_names(schema_path)

    def scalar(name):
        v = metrics.get(name, 0)
        return v if isinstance(v, (int, float)) else 0

    # Any run that compiled a θ must have verified its bytecode and derived
    # range facts; the empty-result rewrite only fires on unsatisfiable θs,
    # so its counter need only be coherent when present.
    for name in names:
        if name in metrics:
            check(scalar(name) >= 0, f"metrics: negative {name}")
    check(scalar("mdjoin_theta_verified_total") > 0,
          "metrics: no θ bytecode program passed the verifier — was θ compiled?")
    check(scalar("mdjoin_range_facts_derived_total") > 0,
          "metrics: interval analysis derived no range facts")


def stats_metric_names(schema_path):
    """The workload-telemetry metric family from the statsMetrics annex."""
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"metrics: cannot read statsMetrics annex from {schema_path}: {e}")
        return []
    names = schema.get("statsMetrics", {}).get("names", [])
    check(names, f"metrics: {schema_path} has no statsMetrics.names annex")
    return names


def validate_stats_metrics(metrics, schema_path):
    for name in stats_metric_names(schema_path):
        check(name in metrics, f"metrics: missing stats metric {name}")

    def scalar(name):
        v = metrics.get(name, 0)
        return v if isinstance(v, (int, float)) else 0

    build_info = metrics.get("mdjoin_build_info")
    if check(isinstance(build_info, dict),
             "metrics: mdjoin_build_info is not an info object"):
        check(build_info.get("git_sha"), "metrics: build_info missing git_sha")
        check(build_info.get("build_type"),
              "metrics: build_info missing build_type")
    qerror = metrics.get("mdjoin_plan_qerror")
    if check(isinstance(qerror, dict),
             "metrics: mdjoin_plan_qerror is not a histogram object"):
        check(qerror.get("count", 0) > 0,
              "metrics: no plan q-error observations — did EXPLAIN ANALYZE run?")
        for q in ("p50", "p90", "p99"):
            check(q in qerror, f"metrics: mdjoin_plan_qerror missing {q}")
    check(scalar("mdjoin_stats_tables_analyzed_total") > 0,
          "metrics: no tables analyzed — did --analyze run?")
    check(scalar("mdjoin_feedback_updates_total") > 0,
          "metrics: no feedback updates harvested")
    check(scalar("mdjoin_queries_logged_total") > 0,
          "metrics: no queries recorded in the history")
    for name in ("mdjoin_feedback_hits_total", "mdjoin_feedback_entries",
                 "mdjoin_slow_queries_total"):
        check(scalar(name) >= 0, f"metrics: negative {name}")


def query_log_record_schema(schema_path):
    """The JSONL record shape from the schema's queryLogRecord annex."""
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"query-log: cannot read queryLogRecord annex from {schema_path}: {e}")
        return {}
    annex = schema.get("queryLogRecord", {})
    check(annex.get("requiredKeys"),
          f"query-log: {schema_path} has no queryLogRecord annex")
    return annex


def validate_query_log(path, schema_path):
    annex = query_log_record_schema(schema_path)
    required = annex.get("requiredKeys", [])
    string_keys = annex.get("stringKeys", [])
    number_keys = annex.get("numberKeys", [])
    boolean_keys = annex.get("booleanKeys", [])
    outcomes = set(annex.get("outcomes", []))
    try:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
    except OSError as e:
        fail(f"query-log: cannot read {path}: {e}")
        return
    if not check(lines, f"query-log: {path} is empty"):
        return
    for i, line in enumerate(lines):
        ctx = f"query-log: line {i + 1}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{ctx}: not JSON: {e}")
            continue
        for key in required:
            check(key in record, f"{ctx}: missing required key '{key}'")
        for key in string_keys:
            if key in record:
                check(isinstance(record[key], str), f"{ctx}: '{key}' not a string")
        for key in number_keys:
            if key in record:
                check(isinstance(record[key], (int, float))
                      and not isinstance(record[key], bool),
                      f"{ctx}: '{key}' not a number")
        for key in boolean_keys:
            if key in record:
                check(isinstance(record[key], bool), f"{ctx}: '{key}' not a boolean")
        if outcomes and "outcome" in record:
            check(record["outcome"] in outcomes,
                  f"{ctx}: unknown outcome {record.get('outcome')!r}")
        # The fingerprints are decimal-in-string so 64-bit values survive.
        for key in ("fingerprint", "plan_hash"):
            if isinstance(record.get(key), str):
                check(record[key].isdigit(), f"{ctx}: '{key}' not a decimal string")
    return len(lines)


def validate_metrics(path, expect_parallel, expect_server, expect_analysis,
                     expect_storage, expect_stats, schema_path):
    try:
        with open(path) as f:
            metrics = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"metrics: cannot load {path}: {e}")
        return
    for name in REQUIRED_COUNTERS:
        check(name in metrics, f"metrics: missing {name}")
        if isinstance(metrics.get(name), (int, float)):
            check(metrics[name] >= 0, f"metrics: negative {name}")
    scanned = metrics.get("mdjoin_detail_rows_scanned_total", 0)
    qualified = metrics.get("mdjoin_detail_rows_qualified_total", 0)
    cand = metrics.get("mdjoin_candidate_pairs_total", 0)
    matched = metrics.get("mdjoin_matched_pairs_total", 0)
    check(scanned > 0, "metrics: no detail rows scanned — did the query run?")
    check(scanned >= qualified, "metrics: qualified > scanned")
    check(cand >= matched, "metrics: matched > candidate pairs")
    if expect_parallel:
        check(metrics.get("mdjoin_morsels_dispatched_total", 0) > 0,
              "metrics: no morsels dispatched in a parallel run")
    if expect_server:
        validate_server_metrics(metrics, schema_path)
    if expect_analysis:
        validate_analysis_metrics(metrics, schema_path)
    if expect_storage:
        validate_storage_metrics(metrics, schema_path)
    if expect_stats:
        validate_stats_metrics(metrics, schema_path)


def validate_explain(path, expect_analysis=False):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        fail(f"explain: cannot read {path}: {e}")
        return
    check("MdJoin" in text, "explain: no MdJoin operator in the annotated plan")
    check("rows=" in text, "explain: no row annotations")
    check("terminal: " in text, "explain: no terminal event line")
    check("terminal: ok" in text, "explain: query did not finish ok")
    check("scanned=" in text, "explain: MD-join node missing scan counters")
    if expect_analysis:
        check("static analysis:" in text,
              "explain: no 'static analysis' section (verifier/range facts)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace")
    parser.add_argument("--metrics")
    parser.add_argument("--explain")
    parser.add_argument("--schema",
                        default=os.path.join(os.path.dirname(__file__),
                                             "obs_schema.json"))
    parser.add_argument("--min-tracks", type=int, default=2)
    parser.add_argument("--expect-parallel", action="store_true")
    parser.add_argument("--expect-server", action="store_true")
    parser.add_argument("--expect-analysis", action="store_true",
                        help="require the static-analysis metric family and "
                             "the 'static analysis' EXPLAIN section")
    parser.add_argument("--expect-storage", action="store_true",
                        help="require the out-of-core storage metric family "
                             "(block cache, zone-map pruning, spill)")
    parser.add_argument("--expect-stats", action="store_true",
                        help="require the workload-telemetry metric family "
                             "(table stats, plan q-error, feedback, history)")
    parser.add_argument("--query-log",
                        help="validate a --query-log JSONL file against the "
                             "queryLogRecord annex")
    args = parser.parse_args()
    if not (args.trace or args.metrics or args.explain or args.query_log):
        parser.error("nothing to validate: pass --trace, --metrics, "
                     "--explain, or --query-log")

    trace = None
    if args.trace:
        try:
            with open(args.trace) as f:
                trace = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL: trace: cannot load {args.trace}: {e}")
            return 1
        validate_schema(trace, args.schema)
        validate_trace_content(trace, args.min_tracks, args.expect_parallel)
    if args.metrics:
        validate_metrics(args.metrics, args.expect_parallel, args.expect_server,
                         args.expect_analysis, args.expect_storage,
                         args.expect_stats, args.schema)
    if args.explain:
        validate_explain(args.explain, args.expect_analysis)
    log_lines = None
    if args.query_log:
        log_lines = validate_query_log(args.query_log, args.schema)

    if ERRORS:
        for e in ERRORS:
            print(f"FAIL: {e}")
        return 1
    parts = []
    if trace is not None:
        parts.append(f"{len(trace.get('traceEvents', []))} trace events validated")
    if args.metrics:
        parts.append("metrics coherent"
                     + (" (incl. server catalog)" if args.expect_server else ""))
    if args.explain:
        parts.append("explain-analyze well-formed")
    if args.query_log:
        parts.append(f"{log_lines} query-log record(s) validated")
    print("OK: " + ", ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
