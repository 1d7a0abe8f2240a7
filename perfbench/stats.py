"""Percentile, spread and self-time arithmetic for the benchmark.

Pure functions only, so ``perfbench/test_perfbench.py`` can pin them.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it (fewer, and one slow sample decides the value).
MIN_BEYOND = 10


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ascending ``ordered`` by the nearest-rank
    rule: the smallest sample with at least ``q`` of the samples at or
    below it."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail(values: Sequence[float], q: float = 0.99) -> Tuple[float, int, bool]:
    """``(value, beyond, resolved)`` for the ``q`` quantile of
    ``values``: ``beyond`` counts samples strictly greater than the
    value, and ``resolved`` is whether that is at least
    :data:`MIN_BEYOND`."""
    ordered = sorted(values)
    value = nearest_rank(ordered, q)
    beyond = len(ordered) - _count_at_or_below(ordered, value)
    return value, beyond, beyond >= MIN_BEYOND


def _count_at_or_below(ordered: Sequence[float], value: float) -> int:
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def samples_needed(q: float, beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which the ``q`` quantile leaves ``beyond``
    samples past it (distinct values assumed): 1000 for p99."""
    n = 1
    while n - max(1, math.ceil(q * n - 1e-9)) < beyond:
        n += 1
    return n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(
    spans: Sequence[Tuple[float, float, int, Optional[int]]],
) -> List[float]:
    """Self time of each ``(start, end, parent, thread)`` span.

    A span's self time is its duration minus the part of it that its
    children cover.  Only children on the parent's own thread count: a
    callback scheduled from one thread onto another runs beside its
    parent, not inside it.  ``parent`` is an index into ``spans`` or -1.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for start, end, parent, thread in spans:
        if parent >= 0 and spans[parent][3] == thread:
            children[parent].append((start, end))
    return [
        max(0.0, (end - start) - covered(children[i], start, end))
        for i, (start, end, _parent, _thread) in enumerate(spans)
    ]
