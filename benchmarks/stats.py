"""Order statistics shared by the worker, the runner and the collector (stdlib only)."""

from __future__ import annotations

import statistics

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` samples sorted
    ascending, the nearest-rank p-th percentile is the sample of rank
    ``ceil(p n / 100)``; keeping ten samples beyond it caps that rank at
    ``n - 10``, so the value is the 11th largest sample and
    ``p = 100 (n - 10) / n``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail percentile needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n - rank


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med
