"""Tests for the benchmark's own arithmetic.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import benchstats as bs


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bs.nearest_rank(values, 50), 50)
        self.assertEqual(bs.nearest_rank(values, 99), 99)
        self.assertEqual(bs.nearest_rank(values, 100), 100)
        self.assertEqual(bs.nearest_rank([7.0], 99.9), 7.0)
        self.assertEqual(bs.nearest_rank([3, 1, 2], 0), 1)

    def test_beyond_counts_samples_strictly_above(self):
        values = list(range(1, 101))
        for pct in (50.0, 75.0, 90.0, 99.0):
            cut = bs.nearest_rank(values, pct)
            above = sum(1 for v in values if v > cut)
            self.assertEqual(bs.beyond(len(values), pct), above)

    def test_at_least_ten_beyond(self):
        self.assertEqual(bs.tail_percentile(100), 90.0)  # 10 beyond p90
        self.assertEqual(bs.tail_percentile(99), 75.0)  # p90 leaves 9
        self.assertEqual(bs.tail_percentile(1000), 99.0)
        self.assertEqual(bs.tail_percentile(4000), 99.5)
        self.assertEqual(bs.tail_percentile(40), 75.0)
        self.assertEqual(bs.tail_percentile(20), 50.0)
        self.assertIsNone(bs.tail_percentile(19))
        for n in range(20, 3000, 7):
            pct = bs.tail_percentile(n)
            self.assertGreaterEqual(bs.beyond(n, pct), 10)
            higher = [c for c in bs.TAIL_CANDIDATES if c > pct]
            for c in higher:
                self.assertLess(bs.beyond(n, c), 10)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        self.assertEqual(bs.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / q2)
        self.assertEqual(bs.spread([4.0]), 0.0)
        self.assertEqual(bs.spread([2.0, 2.0, 2.0]), 0.0)


class Unspanned(unittest.TestCase):
    def test_remainder(self):
        self.assertAlmostEqual(bs.unspanned(10.0, [4.0, 1.5, 2.5]), 2.0)
        self.assertEqual(bs.unspanned(3.0, []), 3.0)

    def test_can_go_negative_when_children_overlap_the_period(self):
        self.assertLess(bs.unspanned(1.0, [0.7, 0.6]), 0)


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_unchanged_within_bound(self):
        change = [v * 1.02 for v in self.parent]
        self.assertEqual(bs.verdict(self.parent, change, "lower", 0.05), "unchanged")

    def test_regressed_beyond_bound(self):
        change = [v * 1.10 for v in self.parent]
        self.assertEqual(bs.verdict(self.parent, change, "lower", 0.05), "regressed")
        self.assertEqual(bs.verdict(change, self.parent, "higher", 0.05), "regressed")

    def test_improved_needs_nine_in_ten_wins(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(bs.verdict(self.parent, change, "lower", 0.05), "improved")
        self.assertEqual(bs.win_share(self.parent, change, "lower"), 1.0)
        # Two losing pairs out of ten: the median still moved, but 0.8 < 0.9.
        mixed = [v * 0.97 for v in self.parent]
        mixed[0], mixed[1] = 200.0, 200.0
        self.assertEqual(bs.win_share(self.parent, mixed, "lower"), 0.8)
        self.assertEqual(bs.verdict(self.parent, mixed, "lower", 0.5), "unchanged")

    def test_ties_count_for_neither(self):
        self.assertEqual(bs.win_share([1.0, 1.0], [1.0, 0.5], "lower"), 0.5)

    def test_improved_needs_more_than_parent_iqr(self):
        change = [v - 0.05 for v in self.parent]  # wins every pair, by a hair
        self.assertEqual(bs.verdict(self.parent, change, "lower", 0.05), "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        self.assertEqual(bs.verdict(noisy, self.parent, "lower", 0.1), "unresolved")
        self.assertEqual(bs.verdict(self.parent, noisy, "lower", 0.1), "unresolved")

    def test_noise_forgiven_when_every_change_run_is_better(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        best = [10.0, 30.0, 20.0, 40.0, 25.0, 15.0, 35.0, 20.0, 30.0, 25.0]
        self.assertEqual(bs.verdict(noisy, best, "lower", 0.1), "improved")

    def test_direction(self):
        self.assertGreater(bs.worse_share(100.0, 110.0, "lower"), 0)
        self.assertLess(bs.worse_share(100.0, 110.0, "higher"), 0)


if __name__ == "__main__":
    unittest.main()
