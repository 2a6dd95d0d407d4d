"""Small statistics helpers shared by the workloads and the stability mode."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples) -> "tuple[float, float, int]":
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)``: ``value`` is the largest sample
    that still has :data:`TAIL_MIN_BEYOND` samples strictly above it in
    rank, and ``percentile`` is its rank as a share of ``n`` (so ``n=100``
    gives the 90th percentile, ``n=1000`` the 99th). With ten samples or
    fewer there is no such sample and the maximum is returned at 100.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    if n <= TAIL_MIN_BEYOND:
        return 100.0, values[-1], n
    rank = n - TAIL_MIN_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, values[rank - 1], n


def quartiles(values) -> "tuple[float, float, float]":
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
