#!/usr/bin/env python3
"""Summarises a results directory written by run.py into one trajectory
point: per workload, the median, quartiles and spread of every figure of
the untraced runs (detail.all_metrics, bounded or not) and of every
per-layer metric of the traced runs, with the host, build and noise
records.

    python3 perfbench/record.py .bench_build/results 5c96651 > perfbench/trajectory/5c96651.json
"""

import glob
import json
import os
import statistics
import sys


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "runs": len(values)}


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    point = {"commit": argv[2] if len(argv) == 3 else None, "workloads": {}}
    for path in sorted(glob.glob(os.path.join(argv[1], "*-trace[01].json"))):
        with open(path) as handle:
            doc = json.load(handle)
        detail, result = doc["detail"], doc["result"]
        point.setdefault("host", detail["host"])
        point.setdefault("build", detail["build"])
        entry = point["workloads"].setdefault(detail["workload"], {
            "seeds": [], "traced_seeds": [], "all_correct": True,
            "noise": {"spin_start_ms": [], "spin_end_ms": [], "steal_s": []},
            "untraced": {}, "traced": {}})
        entry["all_correct"] = entry["all_correct"] and result["correct"]
        for key, value in detail["noise"].items():
            entry["noise"][key].append(value)
        if detail["trace"]:
            entry["traced_seeds"].append(detail["seed"])
            figures, kind = {n: m["value"] for n, m in result["metrics"].items()}, "traced"
        else:
            entry["seeds"].append(detail["seed"])
            figures, kind = detail["all_metrics"], "untraced"
        for name, value in figures.items():
            entry[kind].setdefault(name, []).append(value)
    for entry in point["workloads"].values():
        for kind in ("untraced", "traced"):
            entry[kind] = {name: summarise(v) for name, v in entry[kind].items()}
    json.dump(point, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
