"""Statistics and failure accounting for the perfbench result.

The harness reports raw samples per measurement plus how many operations
of that kind failed. Here a failed operation counts as missing every
percentile (it is treated as infinitely slow), and a named percentile is
only reported when at least MIN_BEYOND samples lie beyond it.
"""

import math
import statistics

MIN_BEYOND = 10


class InsufficientSamples(Exception):
    """A named percentile has fewer than MIN_BEYOND samples beyond it."""


class FailedPercentile(Exception):
    """A named percentile falls on a failed operation."""


def with_failures(values, failures):
    """Samples with each failed operation added as +inf, sorted."""
    if failures < 0:
        raise ValueError("negative failure count")
    return sorted(list(values) + [math.inf] * failures)


def nearest_rank(p, n):
    """1-based nearest-rank index of percentile p (0 < p <= 100) among n."""
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    if n < 1:
        raise InsufficientSamples("no samples")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values, failures, p):
    """Nearest-rank percentile p of the samples plus failures.

    Raises InsufficientSamples when fewer than MIN_BEYOND samples lie
    beyond the percentile, FailedPercentile when it lands on a failure.
    Returns (value, sample_count).
    """
    xs = with_failures(values, failures)
    n = len(xs)
    k = nearest_rank(p, n)
    beyond = n - k
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g needs %d samples beyond it, has %d (n=%d)" % (p, MIN_BEYOND, beyond, n))
    value = xs[k - 1]
    if math.isinf(value):
        raise FailedPercentile("p%g falls on a failed operation (n=%d, failed=%d)"
                               % (p, n, failures))
    return value, n


def median(values, failures=0):
    """Median of the samples plus failures (mean of the middle two)."""
    xs = with_failures(values, failures)
    if not xs:
        raise InsufficientSamples("no samples")
    value = statistics.median(xs)
    if math.isinf(value):
        raise FailedPercentile("median falls on a failed operation")
    return value


def iqr_share(values):
    """Distance between the first and third quartile as a share of the median.

    Quartiles as statistics.quantiles(values, n=4) gives them.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def account(harness):
    """(attempted, failed) of one harness document, failed checks included."""
    attempted = int(harness["attempted"])
    failed = int(harness["failed"])
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted + int(harness.get("checks", 0)):
        raise ValueError("failed count out of range")
    return attempted, failed


# End-to-end metric -> (harness measurement, statistic). The statistic is
# "median" (of the samples), "value" (a scalar) or a named percentile.
E2E_SOURCES = {
    "setup_s": ("setup_s", "median"),
    "update_us_per_edge": ("update_us_per_edge", "median"),
    "kappa_final": ("kappa_final", "value"),
    "density_final": ("density_final", "value"),
    "peak_rss_mb": ("peak_rss_mb", "value"),
    "solve_p50_ms": ("solve_ms", 50),
    "solve_p90_ms": ("solve_ms", 90),
    "solves_per_s": ("solves_per_s", "value"),
    "batch_p50_ms.plain": ("batch_ms.plain", 50),
    "batch_p50_ms.sharded": ("batch_ms.sharded", 50),
    "batch_p50_ms.dist": ("batch_ms.dist", 50),
    "batch_p99_ms.plain": ("batch_ms.plain", 99),
    "batch_p99_ms.sharded": ("batch_ms.sharded", 99),
    "batch_p99_ms.dist": ("batch_ms.dist", 99),
    "records_per_s": ("records_per_s", "value"),
}


def metric(harness, name, sources=E2E_SOURCES):
    """(value, detail) for one metric from a harness document.

    `detail` is the human-readable line: median, named percentile and
    sample count for timings.
    """
    source, stat = sources.get(name, (name, None))
    samples = harness["samples"].get(source)
    if stat is None:
        stat = "median" if samples is not None else "value"
    if stat == "value":
        if source not in harness["values"]:
            raise KeyError("harness did not report %s" % source)
        return float(harness["values"][source]), "value"
    if samples is None:
        raise KeyError("harness did not report samples for %s" % source)
    values, failures = samples["values"], int(samples["failures"])
    med = median(values, failures)
    n = len(values) + failures
    if stat == "median":
        return med, "median of n=%d (failed %d)" % (n, failures)
    value, n = percentile(values, failures, stat)
    return value, "median %.6g, p%d %.6g, n=%d (failed %d)" % (med, stat, value, n, failures)
