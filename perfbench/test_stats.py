"""Tests of the benchmark's statistics helpers on synthetic samples.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [float(x) for x in [7, 1, 9, 3, 5, 11, 13, 2, 8, 6]]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_quartile_distance_over_median(self):
        xs = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        with self.assertRaises(ValueError):
            stats.percentile(xs, 101)

    def test_highest_supported_percentile_leaves_ten_beyond(self):
        self.assertIsNone(stats.highest_supported_percentile(10))
        self.assertEqual(stats.highest_supported_percentile(100), 90)
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(40), 75)
        for n in range(11, 500):
            p = stats.highest_supported_percentile(n)
            xs = list(range(n))
            beyond = sum(1 for x in xs if x > stats.percentile(xs, p))
            self.assertGreaterEqual(beyond, 10, n)

    def test_tail_reports_the_sample_count(self):
        xs = [float(i) for i in range(200)]
        p, value, n = stats.tail(xs)
        self.assertEqual((p, n), (95, 200))
        self.assertAlmostEqual(value, stats.percentile(xs, 95))
        self.assertEqual(stats.tail([1.0] * 5), (None, None, 5))


class Pairing(unittest.TestCase):
    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]

    def test_clear_gain_is_claimed(self):
        change = [x * 0.9 for x in self.PARENT]
        v = stats.pairing_verdict(self.PARENT, change, better="lower")
        self.assertTrue(v["gain"])
        self.assertEqual(v["wins"], 10)

    def test_eight_of_ten_pairs_is_not_enough(self):
        change = [x * 0.9 for x in self.PARENT]
        change[0] = self.PARENT[0] + 1
        change[1] = self.PARENT[1] + 1
        v = stats.pairing_verdict(self.PARENT, change, better="lower")
        self.assertEqual(v["wins"], 8)
        self.assertFalse(v["gain"])

    def test_ties_count_for_neither_side(self):
        change = list(self.PARENT)
        v = stats.pairing_verdict(self.PARENT, change)
        self.assertEqual((v["wins"], v["losses"]), (0, 0))
        self.assertFalse(v["gain"])

    def test_gap_must_exceed_parent_quartile_spread(self):
        # Every pair won, but by less than the parent's own spread.
        change = [x - 0.1 for x in self.PARENT]
        v = stats.pairing_verdict(self.PARENT, change)
        self.assertEqual(v["wins"], 10)
        self.assertFalse(v["gain"])

    def test_higher_is_better_direction(self):
        change = [x * 1.2 for x in self.PARENT]
        self.assertTrue(stats.pairing_verdict(self.PARENT, change, better="higher")["gain"])
        self.assertFalse(stats.pairing_verdict(self.PARENT, change, better="lower")["gain"])

    def test_mismatched_runs_are_an_error(self):
        with self.assertRaises(ValueError):
            stats.pairing_verdict([1.0], [1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
