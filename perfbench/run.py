#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_driver from the checkout's
sources, runs it once for a workload and seed, checks every answer, and
prints the metrics.

    python3 perfbench/run.py --workload sparse_faults --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every run drives all four phases of the
benchmark (see perfbench/README.md): serve_mix, serve_overload,
verify_torus and classify_family. The workload picks the planted fault
density of every generated labelling. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the line before it is {"detail": ...} with the host and build
record, the noise probe, the outcome counts and the sample counts. The full
record is also written under <build dir>/results/. The build directory is
$CARGO_TARGET_DIR (default .bench_build) under the checkout root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("sparse_faults", "dense_faults")
# Goodput latency limit of serve_overload, from the request's due time.
OVERLOAD_LIMIT_US = 10_000.0
# Service figures are medians over this many equal parts of their window
# (~0.3 s each at the default length): host stalls on a shared VM come in
# bursts, and the median over many short parts keeps them out of the tail.
SUBWINDOWS = 20
# Repeated timings of the same work (torus passes, sweeps) are summarised
# by their fast decile: on a shared host other jobs only ever slow a sample
# down, and they come and go within a run, so the fastest samples are what
# holds still from run to run. A slower program moves every sample, the
# fast ones included.
FAST_Q = 0.1
DRIVER_TIMEOUT_S = 170
# Outcomes of a run under this benchmark are compared against these.
EXPECTED_FAMILY = os.path.join(HERE, "expected_family.json")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures and builds perfbench_driver; returns its path."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        raise RuntimeError("the library sources (CMakeLists.txt, src/) are not "
                           "next to perfbench/; run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    binary_dir = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run([cmake, "--build", binary_dir, "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(binary_dir, "perfbench_driver")


# --- host and build record ---------------------------------------------------

def read(path, default=None):
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return default


def cpu_record():
    model, flags = None, []
    for line in (read("/proc/cpuinfo", "") or "").splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and model is None:
            model = value.strip()
        elif key == "flags" and not flags:
            flags = value.split()
    l3 = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if read(os.path.join(base, index, "level")) == "3":
            l3 = read(os.path.join(base, index, "size"))
    return {
        "model": model,
        "machine": platform.machine(),
        "avx2": "avx2" in flags,
        "avx512": sorted(f for f in flags if f.startswith("avx512")),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3,
    }


def source_record():
    """The git SHA when the checkout is a repository, and always a digest of
    the sources the driver is built from."""
    sha = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        try:
            sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    roots = [os.path.join(REPO, name) for name in ("CMakeLists.txt", "src", "tools")]
    roots.append(HERE)
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            if path.endswith((".py", ".pyc", ".cpp", ".hpp", ".txt", ".json")):
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def steal_seconds():
    """CPU time the hypervisor gave to others, all CPUs (/proc/stat)."""
    fields = (read("/proc/stat", "") or "").split("\n")[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# --- metrics -------------------------------------------------------------------

def spans_self(phase):
    return benchlib.self_times_by_name(phase["spans"]) if "spans" in phase else {}


def ratio(part, whole):
    return part / whole if whole else 0.0


def service_counter(stats, key):
    return (stats or {}).get("service", {}).get(key, 0)


def cache_hit_ratio(stats, cache):
    entry = (stats or {}).get("service", {}).get(cache, {})
    return ratio(entry.get("hits", 0), entry.get("hits", 0) + entry.get("misses", 0))


def fast(values):
    """The fast decile of repeated timings (see FAST_Q)."""
    return benchlib.nearest_rank(sorted(values), FAST_Q)


def subwindow_median(times_ms, values, window_s, stat):
    """Median over sub-windows of stat(group); a stat of None (nothing to
    measure in that sub-window) is left out."""
    per_part = benchlib.per_subwindow(times_ms, values, window_s, SUBWINDOWS, stat)
    return benchlib.median([v for v in per_part if v is not None])


def mix_window_metrics(window):
    """serve_mix figures, each the median over the window's sub-windows."""
    seconds = window["seconds"]
    classify_at = window["classify_cycle_at_ms"] + window["classify_grid_at_ms"]
    classify_us = window["classify_cycle_us"] + window["classify_grid_us"]
    answered_at = window["verify_at_ms"] + classify_at + window["stats_at_ms"]
    tails = benchlib.per_subwindow(window["verify_at_ms"], window["verify_us"], seconds,
                                   SUBWINDOWS, lambda v: benchlib.tail(v, max_q=0.99))
    return {
        "verify_p50_us": subwindow_median(window["verify_at_ms"], window["verify_us"],
                                          seconds, benchlib.median),
        "verify_tail": {"value": benchlib.median([t["value"] for t in tails]),
                        "q": min(t["q"] or 0 for t in tails),
                        "n_per_subwindow": min(t["n"] for t in tails)},
        "classify_p50_us": subwindow_median(classify_at, classify_us, seconds,
                                            benchlib.median),
        "qps": subwindow_median(answered_at, answered_at, seconds,
                                lambda group: len(group) * SUBWINDOWS / seconds),
    }


ANSWERED = (benchlib.STATUS_OK, benchlib.STATUS_WRONG)


def answered_median(rows):
    """Median latency of the answered (status, latency) rows, None if none."""
    latencies = [latency for status, latency in rows if status in ANSWERED]
    return benchlib.median(latencies) if latencies else None


def overload_window_metrics(window):
    """serve_overload figures, each the median over sub-windows of the
    schedule (requests go by their due time)."""
    seconds, due = window["seconds"], window["due_ms"]
    rows = list(zip(window["status"], window["latency_us"]))
    refused = (benchlib.STATUS_BUSY, benchlib.STATUS_TIMEOUT)
    return {
        "goodput_rps": subwindow_median(due, rows, seconds, lambda group: benchlib.goodput(
            [s for s, _ in group], [lat for _, lat in group], OVERLOAD_LIMIT_US,
            seconds / SUBWINDOWS)["rps"]),
        "ok_p50_ms": subwindow_median(due, rows, seconds, answered_median) / 1000.0,
        "refused_share": subwindow_median(due, rows, seconds, lambda group: sum(
            1 for s, _ in group if s in refused) / len(group)),
        "sent": len(rows),
        "answered": sum(1 for s, _ in rows if s in ANSWERED),
    }


def end_to_end(record):
    mix, ovl = record["serve_mix"], record["serve_overload"]
    torus, cls = record["verify_torus"], record["classify_family"]
    window = mix["window"]
    serve = mix_window_metrics(window)
    over = overload_window_metrics(ovl["window"])
    nodes = torus["nodes"]
    sweeps = cls["sweeps"]
    # Set-up is timed on the process CPU clock: hypervisor steal stretches
    # wall time by whatever the host is doing, and set-up is too short for
    # a median over repeats to average that out.
    setup = {
        "serve_mix": benchlib.median(mix["setup_cpu_s"]),
        "serve_overload": benchlib.median(ovl["setup_cpu_s"]),
        "verify_torus": benchlib.median(torus["setup_cpu_s"]) + torus["weak_setup_cpu_s"],
        "classify_family": benchlib.median(cls["setup_cpu_s"]),
    }
    setup_wall = {
        "serve_mix": benchlib.median(mix["setup_s"]),
        "serve_overload": benchlib.median(ovl["setup_s"]),
        "verify_torus": benchlib.median(torus["setup_s"]) + torus["weak_setup_s"],
        "classify_family": benchlib.median(cls["setup_s"]),
    }
    metrics = {
        "setup_s": sum(setup.values()),
        "setup_wall_s": sum(setup_wall.values()),
        "serve.verify_p50_us": serve["verify_p50_us"],
        "serve.verify_p99_us": serve["verify_tail"]["value"],
        "serve.classify_p50_us": serve["classify_p50_us"],
        "serve.qps": serve["qps"],
        "overload.goodput_rps": over["goodput_rps"],
        "overload.ok_p50_ms": over["ok_p50_ms"],
        "overload.refused_share": over["refused_share"],
        "torus.vc4_nodes_per_s": nodes / fast(torus["vc4_serial"]["seconds"]),
        "torus.weak_nodes_per_s": nodes / fast(torus["weak_serial"]["seconds"]),
        "torus.sharded_nodes_per_s": nodes / fast(torus["vc4_sharded"]["seconds"]),
        "torus.stream_nodes_per_s": nodes / fast(torus["stream_serial"]["seconds"]),
        "torus.stream_sharded_nodes_per_s": nodes / fast(torus["stream_sharded"]["seconds"]),
        "classify.sweep_s": benchlib.median([s["seconds"] for s in sweeps]),
        "classify.oracle_sum_s": benchlib.median(
            [sum(e["seconds"] for e in s["entries"]) for s in sweeps]),
        # CPU-time figures of the same work: hypervisor steal is wall time
        # but not CPU time, so these hold still on a busy shared host.
        "serve.cpu_us_per_req": window["cpu_s"] * 1e6 / window["answered"],
        "overload.cpu_us_per_req": ovl["window"]["cpu_s"] * 1e6 / over["sent"],
        "classify.sweep_cpu_s": fast([s["cpu_s"] for s in sweeps]),
    }
    for name, key in (("vc4", "vc4_serial"), ("weak", "weak_serial"),
                      ("sharded", "vc4_sharded"), ("stream", "stream_serial"),
                      ("stream_sharded", "stream_sharded")):
        metrics[f"torus.{name}_nodes_per_cpu_s"] = nodes / fast(torus[key]["cpu_s"])
    samples = {
        "setup_parts_s": setup,
        "setup_wall_parts_s": setup_wall,
        "subwindows": SUBWINDOWS,
        "serve.verify": {"n": len(window["verify_us"]),
                         "tail_q": serve["verify_tail"]["q"],
                         "tail_n_per_subwindow": serve["verify_tail"]["n_per_subwindow"]},
        "serve.classify": {"n": len(window["classify_cycle_us"]) + len(window["classify_grid_us"])},
        "overload": {"sent": over["sent"], "answered": over["answered"],
                     "limit_us": OVERLOAD_LIMIT_US, "rate": ovl["window"]["rate"]},
        "torus": {"side": torus["side"], "label_bytes": torus["label_bytes"],
                  "fsync_s": torus["fsync_s"],
                  "passes": {k: len(torus[k]["seconds"]) for k in (
                      "vc4_serial", "vc4_sharded", "stream_serial", "stream_sharded",
                      "weak_serial")}},
        "classify": {"sweeps": len(sweeps)},
    }
    return metrics, samples


def per_layer(record):
    mix, ovl = record["serve_mix"], record["serve_overload"]
    torus, cls = record["verify_torus"], record["classify_family"]
    window, untraced = mix["window"], mix["untraced"]
    mix_self = spans_self(window)
    over, over_untraced = overload_window_metrics(ovl["window"]), overload_window_metrics(ovl["untraced"])
    nodes = torus["nodes"]
    lanes = torus["lanes"]
    serial = benchlib.median(torus["vc4_serial"]["seconds"])
    stream_serial = benchlib.median(torus["stream_serial"]["seconds"])
    vc4_counters = torus["telemetry_vc4"]["counters"]
    weak_counters = torus["telemetry_weak"]["counters"]
    torus_counter = lambda name: vc4_counters.get(name, 0) + weak_counters.get(name, 0)
    stream_passes = len(torus["stream_serial"]["seconds"]) + len(torus["stream_sharded"]["seconds"])
    sweeps = cls["sweeps"]
    last = sweeps[-1]
    entries = [e for e in last["entries"] if not e["cache_hit"]]
    sweep_s = last["seconds"]
    oracle_sum = sum(e["seconds"] for e in entries)
    attempts = sum(e["attempts"] for e in entries)
    cls_counters = cls["telemetry"]["counters"]
    cls_gauges = cls["telemetry"]["gauges"]
    sweep_count = cls["sweep_count"]
    replay = cls["probe_replay"]
    metrics = {
        "service.engine_us": benchlib.median(window["engine_us"]),
        "service.overhead_us": benchlib.median(
            [rt - eng for rt, eng in zip(window["verify_us"], window["engine_us"])]),
        "service.encode_us": benchlib.median(mix_self["service.encode"]) / 1000.0,
        "service.decode_us": benchlib.median(mix_self["service.decode"]) / 1000.0,
        "service.queue_peak": service_counter(ovl["stats"], "queue_peak_depth"),
        "service.busy": service_counter(ovl["stats"], "busy_rejections"),
        "service.timeouts": service_counter(ovl["stats"], "timeouts"),
        "service.shed": service_counter(ovl["stats"], "shed_downgrades"),
        "service.problem_cache_hit_ratio": cache_hit_ratio(mix["stats"], "problem_cache"),
        "service.report_cache_hit_ratio": cache_hit_ratio(mix["stats"], "report_cache"),
        "serve.trace_overhead_us": benchlib.median(window["verify_us"])
            - benchlib.median(untraced["verify_us"]),
        "overload.generator_lag_us": benchlib.tail(ovl["window"]["lag_us"])["value"],
        "overload.engine_us": benchlib.median(ovl["window"]["engine_us"]),
        "overload.encode_us": benchlib.median(ovl["encode_us"]),
        "overload.trace_overhead_ms": over["ok_p50_ms"] - over_untraced["ok_p50_ms"],
        "cycle.build_us": benchlib.median(mix["cycle_build_us"]),
        "cycle.classify_us": benchlib.median(mix["cycle_classify_us"]),
        "lcl.table_nodes_per_s": nodes / torus["table_serial"]["seconds"][0],
        "lcl.bitsliced_nodes_per_s": nodes / torus["bitsliced_serial"]["seconds"][0],
        "torus.vc4_tier": torus["vc4_serial"]["tier"],
        "torus.weak_tier": torus["weak_serial"]["tier"],
        "torus.trace_overhead_share":
            serial / benchlib.median(torus["vc4_serial_untraced"]["seconds"]) - 1.0,
        "stream.open_ms": benchlib.median(torus["open_ms"]),
        "stream.write_mb_per_s": torus["file_bytes"] / 1e6 / benchlib.median(torus["write_s"]),
        "stream.bytes_per_node": torus["file_bytes"] / nodes,
        "stream.kernel_share": serial / stream_serial,
        "stream.peak_rss_kb": torus["telemetry_vc4"]["gauges"].get("stream.peak_rss_kb", 0),
        "stream.slabs": vc4_counters.get("stream.slabs", 0) / max(1, stream_passes),
        "engine.shard_efficiency.incore":
            (serial / benchlib.median(torus["vc4_sharded"]["seconds"])) / lanes,
        "engine.shard_efficiency.stream":
            (stream_serial / benchlib.median(torus["stream_sharded"]["seconds"])) / lanes,
        "engine.pool_busy_share": oracle_sum / (sweep_s * cls["lanes"]),
        "pool.steals": cls_counters.get("pool.steals", 0) / sweep_count,
        "sweep.cache_hits": last["cache_hits"],
        "synthesis.attempt_s": sum(e["attempt_s"] for e in entries),
        "synthesis.clauses": sum(e["clauses"] for e in entries),
        "synthesis.success_ratio": ratio(sum(e["successes"] for e in entries), attempts),
        "probe.s": sum(e["seconds"] - e["attempt_s"] for e in entries),
        "probe.decided_ratio": ratio(sum(1 for r in replay if r["decided"]), len(replay)),
        "probe.conflicts": sum(r["conflicts"] for r in replay),
        "sat.conflicts": cls_counters.get("sat.conflicts", 0) / sweep_count,
        "sat.propagations": cls_counters.get("sat.propagations", 0) / sweep_count,
        "sat.decisions": cls_counters.get("sat.decisions", 0) / sweep_count,
        "sat.arena_bytes": cls_gauges.get("sat.arena_bytes", 0),
        "classify.max_problem_s": max(e["seconds"] for e in entries),
        "classify.trace_overhead_s": sweep_s - benchlib.median(cls["untraced_sweep_s"]),
        "noise.spin_start_ms": record["spin_start_ms"],
        "noise.spin_end_ms": record["spin_end_ms"],
    }
    for tier in ("functional", "table", "bitsliced", "stream"):
        metrics[f"verify.calls.{tier}"] = torus_counter(f"verify.calls.{tier}")
        metrics[f"verify.nodes.{tier}"] = torus_counter(f"verify.nodes.{tier}")
    for rung in ("scalar", "avx2", "avx512"):
        metrics[f"verify.simd.{rung}"] = torus_counter(f"verify.simd.{rung}")
    # The end-to-end figures of the traced windows as well: BENCHMARK.json
    # lists the ones too noisy for a bound among the per-layer metrics.
    for name, value in end_to_end(record)[0].items():
        metrics.setdefault(name, value)
    samples = {
        "serve.spans": {name: len(v) for name, v in mix_self.items()},
        "probe.replay": len(replay),
    }
    return metrics, samples


# --- checks --------------------------------------------------------------------

def service_outcomes(phase, extra_wrong_key):
    """Outcome counts of a service phase over its set-up and windows, plus
    the wrong answers of its in-process checks."""
    windows = [phase["setup"], phase["window"]] + (
        [phase["untraced"]] if "untraced" in phase else [])
    counts = {key: sum(w[key] for w in windows) for key in
              ("attempted", "answered", "refused", "dropped", "errored", "wrong")}
    counts["wrong"] += phase.get(extra_wrong_key, 0)
    return counts


def outcome_counts(record):
    """(attempted, failed, per-phase detail). A wrong answer or an errored
    request is a failed operation; a refusal (kBusy / kTimeout) and an
    open-loop request dropped unsent after a host stall are not."""
    phases = {
        "serve_mix": service_outcomes(record["serve_mix"], "cycle_wrong"),
        "serve_overload": service_outcomes(record["serve_overload"], "encode_wrong"),
    }
    torus = record["verify_torus"]
    passes = [v for v in torus.values() if isinstance(v, dict) and "seconds" in v]
    phases["verify_torus"] = {
        "attempted": sum(len(p["seconds"]) for p in passes),
        "wrong": sum(p["wrong"] for p in passes), "errored": 0}
    phases["classify_family"] = check_family(record["classify_family"])
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["wrong"] + p["errored"] for p in phases.values())
    return attempted, failed, phases


def check_family(cls):
    with open(EXPECTED_FAMILY) as handle:
        expected = json.load(handle)["verdicts"]
    attempted = wrong = 0
    mismatches = []
    for sweep in cls["sweeps"]:
        seen = set()
        for entry in sweep["entries"]:
            attempted += 1
            seen.add(entry["problem"])
            want = expected.get(entry["problem"])
            got = entry["complexity"]
            ok = (got.startswith("global") if want == "Theta(n)" else got == want)
            if not ok:
                wrong += 1
                mismatches.append([entry["problem"], want, got])
        missing = set(expected) - seen
        wrong += len(missing)
        mismatches += [[name, expected[name], None] for name in sorted(missing)]
        # The duplicate relation must be served from the fingerprint cache.
        attempted += 1
        if sweep["cache_hits"] != 1:
            wrong += 1
            mismatches.append(["sweep.cache_hits", 1, sweep["cache_hits"]])
    # A replayed probe agrees with the sweep's verdict for that size; an
    # undecided probe is one the oracle reports as not proven unsolvable.
    probes = {e["problem"]: dict(e["probes"]) for e in cls["sweeps"][-1]["entries"]}
    for row in cls.get("probe_replay", []):
        attempted += 1
        want = row["feasible"] if row["decided"] else True
        if probes.get(row["problem"], {}).get(row["n"]) != want:
            wrong += 1
            mismatches.append([row["problem"], row["n"], "probe replay disagrees"])
    return {"attempted": attempted, "wrong": wrong,
            "errored": cls.get("probe_replay_errors", 0),
            "mismatches": mismatches[:10]}


# --- main ------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    out_dir = build_dir()
    started = time.monotonic()
    try:
        driver = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: build failed: {error}")
        return 2
    build_s = time.monotonic() - started

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir]
    steal_before = steal_seconds()
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                   timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench_driver timed out")
        return 1
    if completed.returncode != 0:
        log(f"run.py: perfbench_driver exited with {completed.returncode}")
        return 1
    record = json.loads(completed.stdout)
    steal_after = steal_seconds()
    # Hypervisor steal during the run: the figure that tells a busy host
    # from a regression (0 where /proc/stat does not report it).
    steal = (steal_after - steal_before
             if steal_before is not None and steal_after is not None else 0.0)

    attempted, failed, phases = outcome_counts(record)
    if failed:
        log(f"run.py: {failed} failed operations: {json.dumps(phases)}")
    if args.trace:
        metrics, samples = per_layer(record)
        units = "per_layer"
    else:
        metrics, samples = end_to_end(record)
        units = "end_to_end"
    metrics["noise.steal_s"] = steal
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    unit_of = {m["name"]: m["unit"] for m in spec[units]}
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        log(f"run.py: metrics not produced: {missing}")
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": cpu_record(),
        "build": dict(record["build"], **source_record(), build_s=build_s),
        "noise": {"spin_start_ms": record["spin_start_ms"],
                  "spin_end_ms": record["spin_end_ms"],
                  "steal_s": steal},
        "outcomes": phases,
        "samples": samples,
        "all_metrics": metrics,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in unit_of.items()},
    }
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as handle:
        json.dump({"detail": detail, "result": result}, handle)
    if args.trace:
        # The spans of a traced run, as the driver recorded them.
        with open(os.path.join(results_dir, stem + ".raw.json"), "wb") as handle:
            handle.write(completed.stdout)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
