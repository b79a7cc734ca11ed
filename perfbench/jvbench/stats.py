"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method of
    ``statistics.quantiles``), pct in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, pct: float) -> int:
    """Number of sorted samples past the pct-th percentile position, of n;
    the interpolated value never exceeds the first of them."""
    return n - 1 - math.floor((n - 1) * pct / 100.0) if n else 0


def highest_tail(n: int, candidates: Sequence[float] = (90, 75, 50)
                 ) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it: p90 when it has them, else the next lower one."""
    for pct in sorted(candidates, reverse=True):
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None
