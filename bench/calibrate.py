"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core VM the speed of this process moved in waves several
seconds long: back-to-back C(6) solves took from 97 to 206 ms per
20-second window (coefficient of variation 19%), enough to break any
bound a run could be held to.  A fixed piece of pure Python, run every
CAL_INTERVAL_S between verdicts, slows down with the machine: dividing
by it cut the same spread to 4%.  Over five 20-second `chains` runs the
quartile spread of the per-verdict percentiles fell from 18-34% raw to
5-6% scaled.

reference_work() is part of the benchmark's definition and must never
change: it builds frozen dataclasses with canonicalizing __post_init__,
indexes them in a dict of sets and sorts, which is the mix of work the
engine's Var, atoms and Store do.  Its time on a quiet machine,
NOMINAL_S, turns the ratio back into seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.004
CAL_INTERVAL_S = 0.25
# A timing is scaled by the median of the calibrations made within
# this many seconds of it (and at least the CAL_MIN_SAMPLES nearest).
CAL_WINDOW_S = 1.0
CAL_MIN_SAMPLES = 5


@dataclass(frozen=True, order=True)
class _Var:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(set(self.parts))))


@dataclass(frozen=True)
class _Pair:
    lhs: _Var
    rhs: _Var


_NAMES = tuple(f"n{i}" for i in range(24))


def reference_work() -> int:
    index: dict = {}
    acc = 0
    for i in range(375):
        a = _Var((_NAMES[i % 24], _NAMES[(i * 7) % 24]))
        p = _Pair(a, _Var((_NAMES[(i * 5) % 24],)))
        index.setdefault(p.lhs, set()).add(p)
        for q in sorted(index.get(_Var((_NAMES[i % 24],)), ()), key=lambda q: q.rhs):
            acc += len(q.rhs.parts)
    return acc


class Calibration:
    """Calibration samples over a run, and the scale they give."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.seconds: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> None:
        """Measure when the last calibration is CAL_INTERVAL_S old."""
        if not self.mids or time.perf_counter() - self.mids[-1] >= CAL_INTERVAL_S:
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the local reference time around [start, end]."""
        lo = bisect.bisect_left(self.mids, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + CAL_WINDOW_S)
        while hi - lo < CAL_MIN_SAMPLES and (lo > 0 or hi < len(self.mids)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.mids))
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
