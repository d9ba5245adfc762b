"""Tests for perfbench's percentile, IQR and failure-accounting code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


def doc(samples=None, values=None, attempted=10, failed=0, checks=0):
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "samples": samples or {}, "values": values or {}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(xs, 0, 50), (500, 1000))
        self.assertEqual(stats.percentile(xs, 0, 99), (990, 1000))
        self.assertEqual(stats.percentile(xs, 0, 90), (900, 1000))

    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        stats.percentile(range(1000), 0, 99)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(999), 0, 99)
        stats.percentile(range(100), 0, 90)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(99), 0, 90)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(19), 0, 50)

    def test_failures_count_as_missing_the_percentile(self):
        xs = [1.0] * 990
        # 10 failures are the slowest 10: p99 is still a success...
        self.assertEqual(stats.percentile(xs, 10, 99), (1.0, 1000))
        # ...but 11 push p99 onto a failure.
        with self.assertRaises(stats.FailedPercentile):
            stats.percentile([1.0] * 989, 11, 99)
        # Failures shift the median upwards.
        self.assertEqual(stats.percentile([1.0] * 10 + [2.0] * 10, 0, 50)[0], 1.0)
        self.assertEqual(stats.percentile([1.0] * 10 + [2.0] * 10, 2, 50)[0], 2.0)

    def test_unsorted_input(self):
        xs = [5.0, 1.0, 3.0] * 10
        self.assertEqual(stats.percentile(xs, 0, 50)[0], 3.0)

    def test_median_with_failures(self):
        self.assertEqual(stats.median([1.0, 2.0, 3.0]), 2.0)
        self.assertEqual(stats.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        self.assertEqual(stats.median([1.0, 2.0, 3.0], 2), 3.0)
        with self.assertRaises(stats.FailedPercentile):
            stats.median([1.0], 2)
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])


class IqrTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values), (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([3.0] * 10), 0.0)

    def test_scale_free(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(stats.iqr_share(values), stats.iqr_share([10 * v for v in values]))


class AccountingTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.account(doc(attempted=7, failed=2)), (7, 2))

    def test_failed_checks_may_exceed_operations(self):
        self.assertEqual(stats.account(doc(attempted=3, failed=5, checks=4)), (3, 5))

    def test_rejects_nonsense(self):
        with self.assertRaises(ValueError):
            stats.account(doc(attempted=0))
        with self.assertRaises(ValueError):
            stats.account(doc(attempted=2, failed=3))
        with self.assertRaises(ValueError):
            stats.account(doc(attempted=2, failed=-1))

    def test_with_failures_appends_infinities(self):
        self.assertEqual(stats.with_failures([2.0, 1.0], 2), [1.0, 2.0, math.inf, math.inf])
        with self.assertRaises(ValueError):
            stats.with_failures([], -1)


class MetricTest(unittest.TestCase):
    def test_percentile_metric(self):
        d = doc(samples={"solve_ms": {"values": [float(i) for i in range(1, 201)],
                                      "failures": 0}})
        self.assertEqual(stats.metric(d, "solve_p90_ms")[0], 180.0)
        self.assertEqual(stats.metric(d, "solve_p50_ms")[0], 100.0)

    def test_failed_samples_reach_the_metric(self):
        d = doc(samples={"batch_ms.plain": {"values": [1.0] * 1000, "failures": 20}})
        with self.assertRaises(stats.FailedPercentile):
            stats.metric(d, "batch_p99_ms.plain")

    def test_value_and_median_metrics(self):
        d = doc(samples={"setup_s": {"values": [3.0, 1.0, 2.0], "failures": 0}},
                values={"kappa_final": 167.2})
        self.assertEqual(stats.metric(d, "setup_s")[0], 2.0)
        self.assertEqual(stats.metric(d, "kappa_final")[0], 167.2)
        # Per-layer names map to themselves: samples give a median.
        self.assertEqual(stats.metric(d, "kappa_final", sources={})[0], 167.2)
        with self.assertRaises(KeyError):
            stats.metric(d, "records_per_s")


if __name__ == "__main__":
    unittest.main()
