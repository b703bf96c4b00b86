"""Unit tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib
from benchlib import (STATUS_BUSY, STATUS_DROPPED, STATUS_ERROR, STATUS_NONE, STATUS_OK,
                      STATUS_TIMEOUT, STATUS_WRONG)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchlib.nearest_rank(values, 0.99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 1.0), 100)
        self.assertEqual(benchlib.nearest_rank([7], 0.99), 7)

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        result = benchlib.tail(range(1000), max_q=0.99)
        self.assertEqual(result, {"q": 0.99, "value": 989, "n": 1000})

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        # 999 samples: p99 has 9 beyond; p95 has 49.
        self.assertEqual(benchlib.tail(range(999), max_q=0.99)["q"], 0.95)
        # 100 samples: p90 has exactly 10 beyond.
        result = benchlib.tail(range(100), max_q=0.99)
        self.assertEqual((result["q"], result["value"], result["n"]), (0.9, 89, 100))
        # 20 samples: only the median qualifies.
        self.assertEqual(benchlib.tail(range(20))["q"], 0.5)

    def test_too_few_samples_reports_no_percentile(self):
        result = benchlib.tail([3, 1, 2])
        self.assertIsNone(result["q"])
        self.assertEqual(result["value"], 2)
        self.assertEqual(result["n"], 3)

    def test_higher_cap_allows_p999(self):
        self.assertEqual(benchlib.tail(range(20000), max_q=0.999)["q"], 0.999)
        self.assertEqual(benchlib.tail(range(20000), max_q=0.99)["q"], 0.99)


class Goodput(unittest.TestCase):
    def test_refusals_and_failures_are_misses(self):
        statuses = [STATUS_OK, STATUS_OK, STATUS_BUSY, STATUS_TIMEOUT,
                    STATUS_ERROR, STATUS_WRONG, STATUS_NONE, STATUS_OK, STATUS_DROPPED]
        latencies = [100, 900, 5, 5, 5, 100, -1, 1001, -1]
        result = benchlib.goodput(statuses, latencies, limit_us=1000, window_s=2.0)
        self.assertEqual(result["good"], 2)
        self.assertEqual(result["misses"], 7)
        self.assertEqual(result["sent"], 9)
        self.assertEqual(result["rps"], 1.0)

    def test_limit_is_inclusive(self):
        result = benchlib.goodput([STATUS_OK], [1000.0], limit_us=1000.0, window_s=1.0)
        self.assertEqual(result["good"], 1)

    def test_length_mismatch_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.goodput([STATUS_OK], [], 1, 1)


class SubWindows(unittest.TestCase):
    def test_groups_by_time(self):
        times = [0, 100, 999, 1000, 2500, 2999, 3000]
        values = [1, 2, 3, 4, 5, 6, 7]
        # 3 s in 3 parts; a time at or past the end joins the last part.
        self.assertEqual(benchlib.per_subwindow(times, values, 3.0, 3, list),
                         [[1, 2, 3], [4], [5, 6, 7]])

    def test_empty_parts_are_skipped(self):
        self.assertEqual(benchlib.per_subwindow([0, 2900], [1, 2], 3.0, 3, len), [1, 1])

    def test_a_stall_in_one_part_leaves_the_median(self):
        times = [i * 10 for i in range(500)]
        values = [100] * 500
        values[120:180] = [5000] * 60  # a stall inside the second second
        medians = benchlib.per_subwindow(times, values, 5.0, 5, benchlib.median)
        self.assertEqual(benchlib.median(medians), 100)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        #  root [0, 100): children [10, 30) and [20, 50) overlap -> cover 40;
        #  grandchild [12, 18) inside the first child.
        rows = [
            [0, 1, -1, 0, 100],
            [1, 1, 0, 10, 30],
            [1, 1, 0, 20, 50],
            [2, 1, 1, 12, 18],
        ]
        self.assertEqual(benchlib.self_times(rows), [60, 14, 30, 6])

    def test_children_are_clipped_to_the_parent(self):
        rows = [[0, 1, -1, 0, 10], [1, 1, 0, 5, 20], [1, 1, 0, 30, 40]]
        self.assertEqual(benchlib.self_times(rows), [5, 15, 10])

    def test_by_name(self):
        spans = {"names": ["req", "wire"],
                 "rows": [[0, 1, -1, 0, 10], [1, 1, 0, 2, 9],
                          [0, 2, -1, 20, 25], [1, 2, 2, 20, 25]]}
        self.assertEqual(benchlib.self_times_by_name(spans),
                         {"req": [3, 0], "wire": [7, 5]})


class PairwiseRule(unittest.TestCase):
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_quartile_spread(self):
        self.assertAlmostEqual(benchlib.quartile_spread([1, 2, 3, 4, 5]), 3 / 3)

    def test_clear_gain(self):
        change = [p - 10 for p in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.05), "gain")
        self.assertEqual(benchlib.compare(self.parent, [p + 10 for p in self.parent],
                                          "higher", 0.05), "gain")

    def test_gain_needs_nine_in_ten_wins(self):
        change = [p - 10 for p in self.parent]
        change[0] = change[1] = 200  # two losses: 8 of 10 wins
        self.assertNotEqual(benchlib.compare(self.parent, change, "lower", 0.5), "gain")

    def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(self):
        # Wins every pair, but by less than the parent's own spread.
        change = [p - 0.5 for p in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.05), "unchanged")

    def test_regression_beyond_bound(self):
        change = [p * 1.10 for p in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.05), "regression")
        self.assertEqual(benchlib.compare(self.parent, change, "higher", 0.2), "gain")

    def test_within_bound_is_unchanged(self):
        change = [p * 1.02 for p in self.parent]
        self.assertEqual(benchlib.compare(self.parent, change, "lower", 0.05), "unchanged")

    def test_noisy_parent_is_unresolved(self):
        noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
        change = [n * 1.01 for n in noisy]
        self.assertEqual(benchlib.compare(noisy, change, "lower", 0.05), "unresolved")

    def test_mismatched_lengths(self):
        with self.assertRaises(ValueError):
            benchlib.compare([1, 2], [1], "lower", 0.1)


if __name__ == "__main__":
    unittest.main()
