"""Small, dependency-free statistics helpers.

The evaluation needs only basic descriptive statistics (means, percentiles,
variance, simple confidence intervals) and relative-improvement arithmetic,
so these are implemented directly rather than pulling in numpy/scipy for the
core library (they remain optional extras for notebook-style analysis).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance; 0.0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return sum((value - centre) ** 2 for value in values) / (len(values) - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Nearest-rank percentiles for every ``q`` of ``qs`` (each in
    ``[0, 100]``) from one sorted copy of ``values``; 0.0 each if empty.

    Raises:
        ValueError: if any ``q`` is outside ``[0, 100]``.
    """
    return sorted_percentiles(sorted(values), qs)


def sorted_percentiles(ordered: Sequence[float], qs: Sequence[float]) -> List[float]:
    """:func:`percentiles` of values already in ascending order, read in
    place: a list or a one-dimensional numpy array (emptiness is tested
    with ``len``, which both answer).

    Raises:
        ValueError: if any ``q`` is outside ``[0, 100]``.
    """
    if not all(0 <= q <= 100 for q in qs):
        raise ValueError("percentile must be in [0, 100]")
    count = len(ordered)
    if not count:
        return [0.0] * len(qs)
    # Rank ceil(q% of count), clamped to 1..count (q = 0 is the minimum).
    return [ordered[min(max(1, math.ceil(q / 100.0 * count)), count) - 1]
            for q in qs]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 100]``); 0.0 if empty.

    Raises:
        ValueError: if ``q`` is outside ``[0, 100]``.
    """
    return percentiles(values, (q,))[0]


def median(values: Sequence[float]) -> float:
    """Median via the nearest-rank 50th percentile."""
    return percentile(values, 50)


def confidence_interval_95(values: Sequence[float]) -> Tuple[float, float]:
    """Normal-approximation 95% confidence interval of the mean.

    Returns ``(low, high)``; collapses to ``(mean, mean)`` for fewer than two
    samples.
    """
    centre = mean(values)
    half_width = ci95_half_width(values)
    return (centre - half_width, centre + half_width)


def ci95_half_width(values: Sequence[float]) -> float:
    """Half-width of the normal-approximation 95% CI of the mean.

    0.0 for fewer than two samples, so single-replication sweeps report a
    degenerate ``± 0`` interval rather than failing.
    """
    if len(values) < 2:
        return 0.0
    return 1.96 * stddev(values) / math.sqrt(len(values))


def improvement_pct(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` in percent.

    Positive means ``improved`` is smaller (better, for latencies).  Returns
    0.0 when the baseline is zero.
    """
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0
