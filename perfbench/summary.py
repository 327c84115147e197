"""Order statistics shared by the runner, the compare mode and the tests."""

from __future__ import annotations

import math
import re
from typing import Dict, Optional, Sequence, Tuple

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``; at most 16.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100), as NumPy's default."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, the way ``statistics.quantiles(n=4)`` cuts them.

    With one sample all three are that sample.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90 with at least ``TAIL_SAMPLES``
    samples beyond it among ``count`` samples, or ``None``.
    """
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return q
    return None


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """``{"q": q, "value": v, "samples": n}`` for :func:`tail_percentile`."""
    q = tail_percentile(len(values))
    if q is None:
        return None
    return {"q": q, "value": percentile(values, q), "samples": len(values)}


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 when it is 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
