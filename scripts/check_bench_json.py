#!/usr/bin/env python3
"""Validate bench JSON output against the repo-wide schema.

Every JSON-emitting bench binary (and the engine's sweep driver) writes one
top-level document of the form

    { "name": <bench/driver id>, "config": { ... }, "results": [ ... ] }

so the perf-trajectory tooling can ingest every binary uniformly. CI runs
this over the JSON captured by scripts/bench_smoke.sh before uploading the
files as workflow artifacts: a bench that drifts off the schema fails the
push that broke it, not the tooling run weeks later.

Usage: check_bench_json.py <file-or-directory>...
Directories are scanned (non-recursively) for *.json. Exits non-zero with
one line per violation.
"""

import json
import math
import sys
from pathlib import Path


def reject_constant(token):
    raise ValueError(f"non-finite number {token!r} (JSON has no NaN/Inf)")


def positive_finite(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def check_verify_throughput(doc, results, errors):
    """Bench-specific gate for the kernel-tier bench: the bitsliced paths
    must be present (a sweep that silently lost them would hide a
    selection regression) and every bitsliced entry must carry a finite,
    positive speedup_vs_table column. The 4x acceptance ratio itself is a
    full-size run's job -- CI smoke sizes are too small and noisy.

    Every row must carry a positive finite nodes_per_sec_per_core (the
    normalised column the perf trajectory plots); a --mmap run must
    contain the mmap_stream rows with a positive finite peak_rss_kb (the
    bounded-memory claim's measurable form). A --mmap-only run skips the
    in-core sweep, so the bitsliced requirement is waived there.

    The SIMD ladder: every 2D serial "bitsliced" row carries a "simd" rung
    name, and each 2D problem with such rows has exactly one per rung from
    "scalar" up to the run's config.simd_tier."""
    config = doc.get("config") if isinstance(doc.get("config"), dict) else {}
    mmap_only = config.get("mmap_only") is True
    bitsliced = [
        entry
        for entry in results
        if isinstance(entry, dict)
        and str(entry.get("path", "")).startswith("bitsliced")
    ]
    if not bitsliced and not mmap_only:
        errors.append('verify_throughput has no "bitsliced" results')
    for entry in bitsliced:
        label = f"{entry.get('problem')}/{entry.get('path')}"
        speedup = entry.get("speedup_vs_table")
        if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
            errors.append(f"{label}: missing speedup_vs_table")
        elif not math.isfinite(speedup) or speedup <= 0:
            errors.append(f"{label}: speedup_vs_table not a positive finite")
    rungs = ["scalar", "avx2", "avx512"]
    top = config.get("simd_tier")
    if top not in rungs:
        errors.append(f"verify_throughput config.simd_tier {top!r} is not a rung")
    else:
        ladders = {}
        for entry in bitsliced:
            if entry.get("dims") != 2 or entry.get("path") != "bitsliced":
                continue
            label = f"{entry.get('problem')}/bitsliced"
            if entry.get("simd") not in rungs:
                errors.append(f"{label}: missing/invalid simd rung")
                continue
            ladders.setdefault(entry.get("problem"), []).append(entry["simd"])
        expected = rungs[: rungs.index(top) + 1]
        for problem, ladder in ladders.items():
            if sorted(ladder, key=rungs.index) != expected:
                errors.append(
                    f"{problem}/bitsliced: simd rungs {ladder}, expected "
                    f"{expected}"
                )
    for entry in results:
        if not isinstance(entry, dict):
            continue
        label = f"{entry.get('problem')}/{entry.get('path')}"
        if not positive_finite(entry.get("nodes_per_sec_per_core")):
            errors.append(f"{label}: missing/invalid nodes_per_sec_per_core")
    if config.get("mmap") is True:
        mmap_rows = [
            entry
            for entry in results
            if isinstance(entry, dict)
            and str(entry.get("path", "")).startswith("mmap_stream")
        ]
        if not mmap_rows:
            errors.append(
                'verify_throughput config says mmap but has no "mmap_stream" '
                "results"
            )
        for entry in mmap_rows:
            label = f"{entry.get('problem')}/{entry.get('path')}"
            if not positive_finite(entry.get("peak_rss_kb")):
                errors.append(f"{label}: missing/invalid peak_rss_kb")
    for key in ("checksum_ok", "fingerprint_ok"):
        if doc.get(key) is not True:
            errors.append(f'verify_throughput "{key}" is not true')


def check_bench_sat(doc, results, errors):
    """Gate for the SAT engine bench: every row carries the arena
    clause-store columns (arena_bytes / gc_runs / live_literals from the
    incremental arm's live solver, peak_rss_kb from getrusage) as finite,
    non-negative numbers. These are the columns the arena-GC perf
    trajectory plots (docs/sat.md); a row that loses them means the bench
    stopped reading the live solver's stats snapshot."""
    for entry in results:
        if not isinstance(entry, dict):
            continue
        label = f"{entry.get('scenario')}/{entry.get('case')}"
        for key in ("arena_bytes", "gc_runs", "live_literals", "peak_rss_kb"):
            value = entry.get(key)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
                or value < 0
            ):
                errors.append(f"{label}: missing/invalid {key}")


def check_bench_service(doc, results, errors):
    """Gate for the verification service bench: every per-op row carries a
    positive finite qps and p99_us (the columns the service perf
    trajectory plots, docs/service.md). A row that loses them means the
    bench stopped timing round-trips -- a zero-request op would emit qps 0
    and fail here, which is the point: the smoke run must actually drive
    every op. Every row also carries the robustness columns timeouts /
    retries (docs/robustness.md) as non-negative integers -- dropping one
    would silently stop tracking deadline and retry behaviour across the
    perf trajectory."""

    def nonneg_int(value):
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and value >= 0
        )

    for entry in results:
        if not isinstance(entry, dict):
            continue
        label = f"bench_service/{entry.get('op')}"
        for key in ("qps", "p99_us"):
            if not positive_finite(entry.get(key)):
                errors.append(f"{label}: missing/invalid {key}")
        for key in ("timeouts", "retries"):
            if not nonneg_int(entry.get(key)):
                errors.append(f"{label}: missing/invalid {key}")


def check_metrics_snapshot(doc, results, errors):
    """Gate for the telemetry exporter (support/telemetry.hpp): every
    results[] entry is {kind: counter|gauge|histogram, name, ...} with a
    non-empty dot-separated name; counters carry a non-negative integer
    value (they are monotonic by contract), gauges an integer value, and
    histograms integer count/sum/min/max with count >= 0."""

    def integer(value):
        return isinstance(value, int) and not isinstance(value, bool)

    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            continue
        label = f"results[{index}]"
        kind = entry.get("kind")
        name = entry.get("name")
        if kind not in ("counter", "gauge", "histogram"):
            errors.append(f"{label}: kind {kind!r} not counter/gauge/histogram")
            continue
        if not isinstance(name, str) or not name:
            errors.append(f"{label}: missing/empty name")
            continue
        label = f"{label} ({name})"
        if kind in ("counter", "gauge"):
            if not integer(entry.get("value")):
                errors.append(f"{label}: {kind} value must be an integer")
            elif kind == "counter" and entry["value"] < 0:
                errors.append(f"{label}: counter value is negative")
        else:
            for key in ("count", "sum", "min", "max"):
                if not integer(entry.get(key)):
                    errors.append(f"{label}: histogram {key} must be an integer")
            count = entry.get("count")
            if integer(count) and count < 0:
                errors.append(f"{label}: histogram count is negative")


def check_document(doc, errors):
    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        return
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        errors.append('"name" must be a non-empty string')
    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append('"config" must be an object')
    results = doc.get("results")
    if not isinstance(results, list):
        errors.append('"results" must be an array')
        return
    if not results:
        errors.append('"results" must not be empty')
    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            errors.append(f"results[{index}] is not an object")
            continue
        for key, value in entry.items():
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"results[{index}].{key} is not finite")
    if name == "verify_throughput":
        check_verify_throughput(doc, results, errors)
    elif name == "bench_sat":
        check_bench_sat(doc, results, errors)
    elif name == "bench_service":
        check_bench_service(doc, results, errors)
    elif name == "metrics_snapshot":
        check_metrics_snapshot(doc, results, errors)


def check_file(path):
    errors = []
    try:
        with path.open() as handle:
            doc = json.load(handle, parse_constant=reject_constant)
    except (OSError, ValueError) as error:
        return [str(error)]
    check_document(doc, errors)
    return errors


def collect(arguments):
    files = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    return files


def main(arguments):
    if not arguments:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = collect(arguments)
    if not files:
        print("check_bench_json: no JSON files found", file=sys.stderr)
        return 1
    failed = False
    for path in files:
        errors = check_file(path)
        if errors:
            failed = True
            for error in errors:
                print(f"FAIL {path}: {error}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
