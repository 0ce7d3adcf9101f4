"""Descriptive statistics: sample summaries and interpolated quantiles."""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Sequence

from . import _mean_sd

__all__ = ["SampleSummary", "interpolated_quantile", "summarize"]


class SampleSummary(NamedTuple):
    """Five-number summary plus mean and sample SD of a batch of values.

    ``sd`` uses the n-1 denominator and is None for single-value samples.
    """

    n: int
    mean: float
    sd: float | None
    median: float
    q1: float
    q3: float
    min: float
    max: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def _sorted_finite(values: Sequence[float], what: str) -> list[float]:
    """``values`` in ascending order, -0.0 before 0.0; refuses empty or non-finite input."""
    s = sorted(map(float, values))
    if not s:
        raise ValueError(f"cannot {what} an empty sample")
    # a NaN or an infinity makes the sum non-finite; so can finite values that overflow it
    if not math.isfinite(sum(s)) and not all(map(math.isfinite, s)):
        bad = next(v for v in s if not math.isfinite(v))
        raise ValueError(f"cannot {what} a sample with non-finite values, got {bad}")
    lo = bisect.bisect_left(s, 0.0)
    if lo < len(s) and s[lo] == 0.0:
        # the stable sort keeps 0.0 and -0.0 in input order; order them by
        # sign so that the result depends only on the multiset
        hi = bisect.bisect_right(s, 0.0, lo)
        negative = sum(math.copysign(1.0, z) < 0.0 for z in s[lo:hi])
        s[lo:hi] = [-0.0] * negative + [0.0] * (hi - lo - negative)
    return s


def interpolated_quantile(values: Sequence[float], p: float) -> float:
    """Quantile by linear interpolation between closest order statistics.

    The quantile sits at position (n-1)*p of the sorted sample
    (zero-indexed) and is interpolated linearly between the two
    bracketing order statistics. Sorting sorted input takes linear
    time. Non-finite values are refused.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {p}")
    return _quantile(_sorted_finite(values, "take a quantile of"), p)


def _quantile(s: list[float], p: float) -> float:
    pos = (len(s) - 1) * p
    lo = math.floor(pos)
    if lo >= len(s) - 1:
        return s[-1]
    if math.isinf(s[lo + 1] - s[lo]):  # order statistics of opposite sign near the float limit
        return (1.0 - (pos - lo)) * s[lo] + (pos - lo) * s[lo + 1]
    return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])


def summarize(values: Sequence[float]) -> SampleSummary:
    """Compute a SampleSummary for a non-empty batch of finite values.

    Sums use compensated summation, so the result is independent of the
    input order and exact for constant samples; see :func:`segci._mean_sd`.
    """
    s = _sorted_finite(values, "summarize")
    n = len(s)
    if s[0] == s[-1]:
        # constant sample: summation noise must not produce a phantom SD.
        # s[-1] is -0.0 only when every value is, as for a sum of zeros.
        value = s[-1]
        return SampleSummary(
            n=n, mean=value, sd=0.0 if n >= 2 else None,
            median=value, q1=value, q3=value, min=s[0], max=value,
        )
    mean, sd = _mean_sd(s)
    return SampleSummary(
        n=n,
        mean=mean,
        sd=sd,
        median=_quantile(s, 0.5),
        q1=_quantile(s, 0.25),
        q3=_quantile(s, 0.75),
        min=s[0],
        max=s[-1],
    )
