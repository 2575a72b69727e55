"""Summary statistics shared by every workload.

The tail rule: report the highest percentile that still has at least
:data:`MIN_BEYOND` samples beyond it, so a tail number never rests on a
handful of outliers.  With too few samples for any percentile on the
ladder the tail is unresolved and the median stands in for it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Percentiles tried for the tail, highest first.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)

#: Samples that must lie strictly beyond a percentile for it to count.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail percentile with the sample count it rests on."""

    percentile: float  # 50.0 when unresolved
    value: float
    samples: int
    beyond: int
    resolved: bool


def nearest_rank(ordered: Sequence[float], q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` in ``ordered``."""
    return max(1, math.ceil(q / 100.0 * len(ordered)))


def tail(samples: Sequence[float]) -> Tail:
    """The highest :data:`LADDER` percentile with >= MIN_BEYOND samples
    beyond it (nearest-rank), else the median marked unresolved."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for q in LADDER:
        rank = nearest_rank(ordered, q)
        if n - rank >= MIN_BEYOND:
            return Tail(q, ordered[rank - 1], n, n - rank, True)
    return Tail(50.0, statistics.median(ordered), n, n // 2, False)
