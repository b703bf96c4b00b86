#!/usr/bin/env python3
"""Compares two commits' benchmark runs by the pairwise rule of
benchlib.compare, one row per (workload, metric).

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a results directory written by run.py
(<build dir>/results/<workload>-seed<N>-trace0.json). Runs are paired by
workload and seed, so run both commits on the same seeds, alternating which
side runs first. Every figure of the untraced runs is compared: the
end-to-end metrics with their bound from BENCHMARK.json, the others (the
figures BENCHMARK.json lists as per-layer) with DEFAULT_BOUND, marked
"unbounded".
"""

import glob
import json
import os
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BOUND = 0.25


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as handle:
            detail = json.load(handle)["detail"]
        runs[(detail["workload"], detail["seed"])] = detail["all_metrics"]
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    parent, change = load(argv[1]), load(argv[2])
    shared = sorted(set(parent) & set(change))
    print(f"{'workload':14} {'metric':38} {'parent':>12} {'change':>12} verdict")
    for workload in sorted({workload for workload, _ in shared}):
        keys = [key for key in shared if key[0] == workload]
        if len(keys) < 2:
            continue
        for name, better, bound in metrics:
            if not all(name in parent[key] and name in change[key] for key in keys):
                continue
            p = [parent[key][name] for key in keys]
            c = [change[key][name] for key in keys]
            verdict = benchlib.compare(p, c, better, bound or DEFAULT_BOUND)
            note = "" if bound else " (unbounded)"
            print(f"{workload:14} {name:38} {benchlib.median(p):12.5g} "
                  f"{benchlib.median(c):12.5g} {verdict}{note} [{len(keys)} pairs]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
