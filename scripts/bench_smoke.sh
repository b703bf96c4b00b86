#!/usr/bin/env bash
# Smoke-runs every bench binary at tiny sizes so the benches cannot bit-rot:
# CI executes this after the test suite. Each binary must appear in the `run`
# list below -- the coverage check at the end fails the script if a new
# bench/*.cpp was added without registering smoke arguments here.
#
# When BENCH_JSON_DIR is set, the stdout of the `run_json` entries (the
# binaries emitting the repo {name, config, results[]} schema) is captured
# to $BENCH_JSON_DIR/<name>[-tag].json, and each entry additionally writes
# its telemetry metrics snapshot (--metrics-out) to
# $BENCH_JSON_DIR/<name>[-tag].metrics.json -- the snapshot follows the
# same repo schema, so scripts/check_bench_json.py validates both. When
# BENCH_TRACE_DIR is set, each entry also writes a Chrome trace
# (--trace-out) to $BENCH_TRACE_DIR/<name>[-tag].trace.json, validated by
# scripts/check_trace_json.py. With -DLCLGRID_TELEMETRY=OFF the binaries
# warn and write no telemetry files, which both checkers tolerate (they
# only scan files that exist).
#
# Usage: [BENCH_JSON_DIR=dir] [BENCH_TRACE_DIR=dir] scripts/bench_smoke.sh
#        [build-dir]   (build-dir default: build)
set -euo pipefail

build="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
declare -A covered

run() {
  local name="$1"
  shift
  covered["$name"]=1
  if [ ! -x "$build/$name" ]; then
    echo "-- $name: not built, skipping"
    return 0
  fi
  echo "== $name $*"
  "$build/$name" "$@" > /dev/null
}

# Like `run`, but the binary emits the repo JSON schema: capture it when
# BENCH_JSON_DIR is set. An optional leading `-t tag` suffixes the capture
# file so one binary can contribute several configurations.
run_json() {
  local tag=""
  if [ "$1" = "-t" ]; then
    tag="-$2"
    shift 2
  fi
  local name="$1"
  shift
  covered["$name"]=1
  if [ ! -x "$build/$name" ]; then
    echo "-- $name: not built, skipping"
    return 0
  fi
  echo "== $name $*"
  if [ -n "${BENCH_TRACE_DIR:-}" ]; then
    mkdir -p "$BENCH_TRACE_DIR"
    set -- "$@" --trace-out "$BENCH_TRACE_DIR/$name$tag.trace.json"
  fi
  if [ -n "${BENCH_JSON_DIR:-}" ]; then
    mkdir -p "$BENCH_JSON_DIR"
    set -- "$@" --metrics-out "$BENCH_JSON_DIR/$name$tag.metrics.json"
    "$build/$name" "$@" > "$BENCH_JSON_DIR/$name$tag.json"
  else
    "$build/$name" "$@" > /dev/null
  fi
}

# JSON benches (repo schema {name, config, results[]}).
# --smoke sweeps d = 2, 3 and 4 through the compiled-table kernels
# (including the bitsliced paths -- check_bench_json.py requires their
# columns); the explicit --dims runs keep the per-dimension entry points
# covered even if the default dimension list changes.
run_json -t smoke bench_verify_throughput --smoke --threads 2
run_json -t d3 bench_verify_throughput 24 0.02 --threads 2 --dims 3
# n = 32 keeps the 5^4 = 625-node d=4 torus comfortably above the
# bitslice::kMinNodesForBitslice selection floor (check_bench_json.py
# requires the bitsliced rows), with headroom against floor bumps.
run_json -t d4 bench_verify_throughput 32 0.02 --threads 2 --dims 4
# The streaming (out-of-core) tier: a tiny --mmap sweep writes the on-disk
# labelling, verifies it from the mapping serial + sharded, and reports the
# peak_rss_kb / nodes_per_sec_per_core columns check_bench_json.py gates,
# and the file's size, which must be the LCLLABv2 size
# 24 + lines * planes * words * 8 (planes = ceil(log2 sigma), words =
# ceil(n / 64)). The JSON is captured to a scratch directory when
# BENCH_JSON_DIR is unset.
check_mmap_file_bytes() {
  python3 - "$1" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
rows = [r for r in doc["results"]
        if str(r.get("path", "")).startswith("mmap_stream")]
if not rows:
    sys.exit("bench_smoke: the mmap run has no mmap_stream rows")
for row in rows:
    n, sigma = row["torus_n"], row.get("sigma", 0)
    planes = max(1, (sigma - 1).bit_length())
    expected = 24 + n * planes * ((n + 63) // 64) * 8
    if row.get("file_bytes") != expected:
        sys.exit(f"bench_smoke: {row['problem']} n={n} {row['path']}: "
                 f"file_bytes {row.get('file_bytes')} != {expected}")
print(f"bench_smoke: {len(rows)} mmap rows record the LCLLABv2 file size")
PY
}
mmap_dir="${BENCH_JSON_DIR:-$(mktemp -d)}"
BENCH_JSON_DIR="$mmap_dir" run_json -t mmap bench_verify_throughput --smoke --threads 2 --dims 2 --mmap
if [ -x "$build/bench_verify_throughput" ]; then
  check_mmap_file_bytes "$mmap_dir/bench_verify_throughput-mmap.json"
fi
[ -n "${BENCH_JSON_DIR:-}" ] || rm -rf "$mmap_dir"
# The SIMD ladder: the 2D serial bitsliced rows run once per rung up to the
# process's tier (check_bench_json.py requires exactly that ladder, with a
# simd field per row); capped runs must stop the ladder at their cap.
LCLGRID_SIMD=0 run_json -t simd0 bench_verify_throughput --smoke --threads 2 --dims 2
LCLGRID_SIMD=1 run_json -t simd1 bench_verify_throughput --smoke --threads 2 --dims 2
# The LCLGRID_BITSLICE=0 escape hatch must keep the bench (and the auto-
# selected batched paths) healthy; bash scopes the prefixed variable to
# this one call.
LCLGRID_BITSLICE=0 run_json -t bitslice-off bench_verify_throughput --smoke --threads 2
run_json bench_family_sweep --smoke --threads 2
run_json bench_sat --smoke
# The verification service daemon: an in-process daemon on an ephemeral
# loopback port, hammered by client threads. --smoke clamps duration and
# clients; the soak tag additionally exercises the explicit-BUSY admission
# path (the run fails if any burst response goes missing).
run_json -t smoke bench_service --smoke
run_json -t soak bench_service --soak 1 --clients 2

# Armed-but-never-firing fault points (LCLGRID_FAULTS, docs/robustness.md):
# with any point armed, every FAULT_POINT site in the process takes its
# slow path. One run per JSON bench proves env arming cannot disturb
# results and keeps the armed cost visible in the captured JSON -- the
# <= 2% overhead methodology is documented in docs/robustness.md.
armed='service.dispatch:delay=0@nth=1000000000'
LCLGRID_FAULTS="$armed" run_json -t faults-armed bench_verify_throughput --smoke --threads 2
LCLGRID_FAULTS="$armed" run_json -t faults-armed bench_family_sweep --smoke --threads 2
LCLGRID_FAULTS="$armed" run_json -t faults-armed bench_sat --smoke
LCLGRID_FAULTS="$armed" run_json -t faults-armed bench_service --smoke

# Google Benchmark binaries (skipped automatically if the library was
# unavailable at configure time).
run bench_simulator --benchmark_min_time=0.01

# Figure / table reproductions. The slow ones take --smoke.
run fig2_cycle_classification
run fig_colouring_rounds
run fig_corner_coordination
run fig_edge_colouring_rounds
run fig_normal_form
run fig_randomised
run tab_edge_colouring --smoke
run tab_orientation --smoke
run tab_orientation_invariant
run tab_qsum_invariant
run tab_synthesis_tiles --smoke
run tab_turing_lcl --smoke
run tab_vertex_colouring

# Coverage check: every bench source must be registered above. The glob is
# anchored to the script's repo so the check works from any cwd.
missing=0
for source in "$repo_root"/bench/*.cpp; do
  name="$(basename "$source" .cpp)"
  if [ -z "${covered[$name]:-}" ]; then
    echo "ERROR: $name has no smoke entry in scripts/bench_smoke.sh"
    missing=1
  fi
done
exit "$missing"
