"""Summary statistics for the benchmark: percentiles and the growth fit."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1), refusing a sample too small to have
    MIN_BEYOND values above it: p90 needs at least 100 samples."""
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if len(values) * (1 - q) < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond the "
            f"{q:.0%} point")
    if q == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size) over
    (size, time) pairs: time ~ size ** slope."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        raise ValueError("the growth fit needs at least two distinct sizes")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx

