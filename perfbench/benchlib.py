"""The benchmark's arithmetic, kept apart from I/O so it can be unit-tested
(perfbench/test_benchlib.py).

- the percentile rule: a tail is reported at the highest percentile that
  still has at least ten samples beyond it, together with the sample count;
- goodput under a latency limit, where refused, failed and unanswered
  requests all count as misses;
- self time of nested spans;
- the quartile spread of repeated runs and the pairwise comparison rule
  for two commits.
"""

import math
import statistics

# Open-loop request outcomes, as perfbench_driver numbers them.
(STATUS_NONE, STATUS_OK, STATUS_WRONG, STATUS_BUSY, STATUS_TIMEOUT, STATUS_ERROR,
 STATUS_DROPPED) = range(7)

PERCENTILE_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def median(values):
    return statistics.median(values)


def nearest_rank(sorted_values, q):
    """The q-quantile by the nearest-rank rule: the smallest sample with at
    least a share q of the samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def samples_beyond(count, q):
    return count - max(1, math.ceil(q * count))


def tail(values, max_q=0.99, min_beyond=10):
    """The highest percentile up to max_q with at least min_beyond samples
    beyond it. Returns {"q", "value", "n"}; q is None (and value the
    median) when even the median lacks min_beyond samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in PERCENTILE_LADDER:
        if q <= max_q and n and samples_beyond(n, q) >= min_beyond:
            return {"q": q, "value": nearest_rank(ordered, q), "n": n}
    return {"q": None, "value": median(ordered) if n else None, "n": n}


def per_subwindow(times_ms, values, window_s, parts, stat):
    """stat(values of one sub-window) for each of `parts` equal sub-windows
    of [0, window_s) that holds a sample, a sample going by its time in ms.
    A short host stall then spoils one sub-window, and the median over
    sub-windows ignores it."""
    if len(times_ms) != len(values):
        raise ValueError("times and values differ in length")
    width = window_s * 1000.0 / parts
    groups = [[] for _ in range(parts)]
    for time_ms, value in zip(times_ms, values):
        groups[min(parts - 1, max(0, int(time_ms // width)))].append(value)
    return [stat(group) for group in groups if group]


def goodput(statuses, latencies_us, limit_us, window_s):
    """Correct answers within limit_us per second of the send window.
    A request refused (busy or timed out), answered wrongly, failed, never
    answered or dropped unsent by a late client is a miss."""
    if len(statuses) != len(latencies_us):
        raise ValueError("statuses and latencies differ in length")
    good = sum(
        1
        for status, latency in zip(statuses, latencies_us)
        if status == STATUS_OK and 0 <= latency <= limit_us
    )
    return {
        "rps": good / window_s,
        "good": good,
        "misses": len(statuses) - good,
        "sent": len(statuses),
    }


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(rows):
    """Self time of every span: its duration minus the part of its interval
    its children cover. rows are [name, id, parent, start, end] with parent
    an index into rows (-1 for a root). Returns a list parallel to rows."""
    children = [[] for _ in rows]
    for index, row in enumerate(rows):
        parent = row[2]
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, _, _, start, end) in enumerate(rows):
        clipped = [
            (max(start, rows[c][3]), min(end, rows[c][4]))
            for c in children[index]
            if rows[c][4] > start and rows[c][3] < end
        ]
        result.append((end - start) - covered(clipped))
    return result


def self_times_by_name(spans):
    """{name: [self time ns, ...]} for a span document
    {"names": [...], "rows": [...]}."""
    out = {}
    rows = spans["rows"]
    for row, own in zip(rows, self_times(rows)):
        out.setdefault(spans["names"][row[0]], []).append(own)
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare(parent, change, better, bound):
    """The pairwise rule for one metric over runs of two commits, paired in
    the order given (alternate which side runs first when collecting them).

    - "gain": the change wins at least 9 in 10 pairs (ties count for
      neither) and the medians differ by more than the parent's own
      interquartile distance;
    - "regression": the change's median is worse than the parent's by more
      than bound (a share of the parent's median);
    - "unresolved": the parent's spread exceeds the bound, unless every
      change run beats every parent run;
    - "unchanged": otherwise.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long run lists of at least 2")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median, change_median = median(parent), median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gained = sign * (change_median - parent_median)
    if wins >= 0.9 * len(parent) and gained > q3 - q1:
        return "gain"
    if -gained > bound * abs(parent_median):
        return "regression"
    if quartile_spread(parent) > bound:
        beats_all = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
        return "gain" if beats_all else "unresolved"
    return "unchanged"
