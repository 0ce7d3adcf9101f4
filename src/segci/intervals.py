"""Confidence intervals for mean DSC: parametric reconstruction and bootstrap.

The parametric interval is the classical t-based bracket

    mean +/- t(n-1, 1-alpha/2) * sd / sqrt(n)

applied to aggregate results as published (mean, test size, SD). When a
publication omits the SD, :func:`reconstruct_ci` takes the quadratic
mean-to-SD model's (:func:`approximate_sd`). The percentile bootstrap
operates on per-case values and serves as the non-parametric cross-check.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import NamedTuple, Sequence

from . import _check_seed
from .glm import GlmFit, predict_sd_pct
from .special import t_quantile

__all__ = [
    "PARAMETRIC_T",
    "BOOTSTRAP_PERCENTILE",
    "ConfidenceInterval",
    "CiComparison",
    "approximate_sd",
    "parametric_ci",
    "reconstruct_ci",
    "bootstrap_ci",
    "compare_cis",
]

PARAMETRIC_T = "parametric_t"
BOOTSTRAP_PERCENTILE = "bootstrap_percentile"

MIN_BOOTSTRAP_RESAMPLES = 100
# Draws per block of resamples: each block buffer holds 256 KB.
_BLOCK_ELEMENTS = 2**15


class ConfidenceInterval(NamedTuple):
    lower: float
    upper: float
    alpha: float
    method: str
    clamped: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class CiComparison(NamedTuple):
    lower_diff: float
    upper_diff: float
    width_diff: float


def _check_real(**values) -> None:
    """Refuse a value that is not a real number, naming its argument."""
    for name, value in values.items():
        # the type test first: an isinstance test against an ABC is slow
        if type(value) is not float and not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def approximate_sd(mean_dsc: float, model: "GlmFit | Sequence[float]") -> float:
    """Model SD (fraction scale) at a mean DSC in [0, 1]; the model works on the percent scale.

    At a mean of exactly 0 or 1 every case scored the mean, so the SD is 0: the limit of
    the cap sqrt(x * (100 - x)) that :func:`~segci.glm.predict_sd_pct` drops at the ends.
    """
    _check_real(mean_dsc=mean_dsc)
    if not 0.0 <= mean_dsc <= 1.0:
        raise ValueError(f"mean_dsc must lie in [0, 1], got {mean_dsc}")
    sd = predict_sd_pct(model, mean_dsc * 100.0) / 100.0  # checks the model at the ends too
    return sd if 0.0 < mean_dsc < 1.0 else 0.0


def parametric_ci(
    mean_dsc: float,
    sd: float,
    n: int,
    alpha: float = 0.05,
    clamp: bool = True,
) -> ConfidenceInterval:
    """t-based confidence interval around a mean DSC.

    Parameters
    ----------
    mean_dsc : float
        Mean on the fraction scale, in [0, 1].
    sd : float
        Standard deviation of per-case values, fraction scale; finite and >= 0.
    n : int
        Test-set size, an integer of at least 2.
    alpha : float
        Significance level in [1e-323, 1); 0.05 gives the 95% interval.
    clamp : bool
        Restrict the interval to [0, 1] (a Dice score cannot leave it).
        A clamped interval is marked via the ``clamped`` field.
    """
    if not isinstance(n, Integral) or n < 2:
        raise ValueError(f"n must be an integer >= 2 for n-1 degrees of freedom, got {n!r}")
    _check_real(mean_dsc=mean_dsc, sd=sd, alpha=alpha)
    if not 0.0 <= mean_dsc <= 1.0:
        raise ValueError(f"mean_dsc must lie in [0, 1], got {mean_dsc}")
    if not 0.0 <= sd < math.inf:
        raise ValueError(f"sd must be finite and >= 0, got {sd}")
    if not 0.0 < alpha / 2.0 < 0.5:  # below 1e-323, alpha / 2 rounds to 0
        raise ValueError(f"alpha must lie in [1e-323, 1), got {alpha}")
    # the lower quantile, negated: 1 - alpha/2 would round to 1 for a tiny alpha
    half_width = -t_quantile(alpha / 2.0, n - 1) * sd / math.sqrt(n)
    lower = mean_dsc - half_width
    upper = mean_dsc + half_width
    clamped = False
    if clamp:
        clipped_lower = max(0.0, lower)
        clipped_upper = min(1.0, upper)
        clamped = clipped_lower != lower or clipped_upper != upper
        lower, upper = clipped_lower, clipped_upper
    elif not math.isfinite(upper - lower):
        raise ValueError(f"unclamped interval overflows: sd={sd} at n={n} gives an infinite width")
    return ConfidenceInterval(lower, upper, alpha, PARAMETRIC_T, clamped)


def reconstruct_ci(
    mean_dsc: float,
    n: int,
    reported_sd: float | None,
    model: "GlmFit | Sequence[float]",
    alpha: float = 0.05,
    clamp: bool = True,
    prefer_reported_sd: bool = True,
) -> tuple[ConfidenceInterval, float, str]:
    """:func:`parametric_ci` of a published aggregate, with the SD it used and that SD's source.

    The SD is ``reported_sd`` (``"reported"``) when given and preferred, else the model's
    (``"model"``, :func:`approximate_sd`); ``prefer_reported_sd=False`` forces the model SD.
    """
    if prefer_reported_sd and reported_sd is not None:
        sd, sd_source = reported_sd, "reported"
    else:
        sd, sd_source = approximate_sd(mean_dsc, model), "model"
    return parametric_ci(mean_dsc, sd, n, alpha, clamp=clamp), sd, sd_source


def bootstrap_ci(
    values: Sequence[float],
    alpha: float = 0.05,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap interval for the mean of per-case values.

    Each resample draws its own counter-based random stream from
    (seed, resample index), so the result is bit-identical for a given
    seed regardless of the order the resamples are drawn in. The sample is
    sorted first, making the result a function of the multiset of
    values rather than their ordering. Each resample mean is the correctly
    rounded sum of its draws, computed exactly, divided by n, so blocking
    and summation order never change a bit.

    Non-finite values are refused, as are a seed that is not an integer
    in [0, 2**64), an n_resamples that is not an integer of at least 100,
    a sample whose resample sums overflow the float range, and an alpha
    so small that (n_resamples + 1) * alpha / 2 < 1: its interval would be
    the smallest and largest resample means whatever alpha is (Davison &
    Hinkley 1997, section 5.2).
    """
    # numpy and the random streams load here, so the aggregate path
    # (parametric_ci and approximate_sd) runs without them.
    import numpy as np

    from .descriptive import _quantile, _sorted_finite

    s = _sorted_finite(values, "bootstrap")
    if not isinstance(n_resamples, Integral) or n_resamples < MIN_BOOTSTRAP_RESAMPLES:
        raise ValueError(
            f"n_resamples must be an integer >= {MIN_BOOTSTRAP_RESAMPLES}, got {n_resamples!r}"
        )
    _check_real(alpha=alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_seed(seed)
    needed = 2.0 / alpha  # B + 1 >= 2 / alpha, i.e. (B + 1) * alpha / 2 >= 1
    if n_resamples + 1 < needed:
        fix = f"n_resamples >= {math.ceil(needed) - 1}" if needed < math.inf else "a larger alpha"
        raise ValueError(
            f"alpha={alpha} is too small for n_resamples={n_resamples}: the interval would be "
            f"the extreme resample means; use {fix}"
        )
    if s[0] == s[-1]:
        # constant sample: every resample mean is s[-1], -0.0 only when every value is
        return ConfidenceInterval(s[-1], s[-1], alpha, BOOTSTRAP_PERCENTILE)

    try:
        means = _resample_means(np.array(s), n_resamples, seed)
    except OverflowError:
        raise ValueError("bootstrap_ci: a resample sum overflows the float range") from None
    means = np.sort(means).tolist()
    lower = _quantile(means, alpha / 2.0)
    upper = _quantile(means, 1.0 - alpha / 2.0)
    return ConfidenceInterval(lower, upper, alpha, BOOTSTRAP_PERCENTILE)


def _resample_means(arr, n_resamples: int, seed: int):
    """Mean of each bootstrap resample of the finite sample ``arr``, by index.

    Resample r draws ``substream(seed, DOMAIN_BOOTSTRAP, r).integers(0, n,
    size=n)`` and its mean is ``math.fsum(arr[idx]) / n``, bit for bit.
    The indices come from each stream's raw 64-bit words through Lemire's
    map, a block at a time, bit-identical to ``Generator.integers``; a
    resample with a draw that map rejects is redrawn with ``integers``
    (see :func:`_resample_indices`).
    The sum is computed exactly over blocks of resamples: every value is
    an integer times 2^-k, split into signed limbs of ``bits`` bits held
    as float64 columns. A column summed over n draws stays below
    n * 2^bits < 2^52 in magnitude, so numpy adds it exactly in any
    order, and fsum of the scaled limb sums rounds the exact total once.
    Raises OverflowError when a resample sum leaves the float range.
    """
    import numpy as np

    from .rng import DOMAIN_BOOTSTRAP, substreams

    n = arr.size
    # v = num / 2^d exactly; k is the largest d, so every v * 2^k is an integer
    ratios = [v.as_integer_ratio() for v in arr.tolist()]
    k = max(den.bit_length() for _, den in ratios) - 1
    scaled = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    bits = 52 - n.bit_length()
    width = max(abs(i) for i in scaled).bit_length()
    shifts = range(0, max(1, -(-width // bits)) * bits, bits)
    mask = (1 << bits) - 1
    columns = np.array(
        [[(abs(i) >> shift & mask) * (1 if i >= 0 else -1) for i in scaled] for shift in shifts],
        dtype=float,
    )
    exponents = [shift - k for shift in shifts]

    block = max(1, _BLOCK_ELEMENTS // n)
    idx = np.empty((block, n), dtype=np.int64)
    raw = np.empty((block, (n + 1) // 2), dtype=np.uint64)
    drawn = np.empty((block, n))
    sums = np.empty((block, len(shifts)))
    means = np.empty(n_resamples)
    streams = substreams(seed, DOMAIN_BOOTSTRAP)
    for start in range(0, n_resamples, block):
        rows = min(block, n_resamples - start)
        _resample_indices(streams, start, idx[:rows], raw[:rows])
        for limb, column in enumerate(columns):
            # the draws are in range; "clip" skips the copy of out that "raise" makes
            column.take(idx[:rows], out=drawn[:rows], mode="clip")
            drawn[:rows].sum(axis=1, out=sums[:rows, limb])
        means[start:start + rows] = [
            math.fsum(map(math.ldexp, row, exponents)) for row in sums[:rows].tolist()
        ]
    means /= n
    return means


def _resample_indices(streams, start: int, out, raw) -> int:
    """Fill row j of ``out`` with the draws of resample ``start + j``.

    Row j equals ``streams(start + j).integers(0, n, size=n)`` bit for
    bit, where n is the row length. Each resample's stream writes its
    (n + 1) // 2 raw 64-bit words into its row of ``raw``; every word
    splits into two 32-bit draws u, low half first, as numpy's
    ``next_uint32`` takes them, and Lemire's map (u * n) >> 32 turns the
    whole block into indices at once. numpy rejects a draw whose
    (u * n) mod 2^32 falls below 2^32 mod n and draws again, so a
    resample with such a draw is redrawn whole with ``integers``.
    Returns the number of resamples redrawn.
    """
    import numpy as np

    rows, n = out.shape
    if n > 2**32:
        # numpy maps a range this wide from 64-bit draws instead
        raise ValueError(f"resampling needs n <= 2**32, got {n}")
    words = raw.shape[1]
    for j in range(rows):
        raw[j] = streams(start + j).bit_generator.random_raw(words)
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n]
    scaled = out.view(np.uint64)
    np.multiply(halves, np.uint64(n), out=scaled)
    # the low 32 bits of u * n against numpy's threshold, never hit for a power of two
    rejected = np.flatnonzero((scaled.astype(np.uint32) < 2**32 % n).any(axis=1)).tolist()
    np.right_shift(scaled, 32, out=scaled)
    for j in rejected:
        out[j] = streams(start + j).integers(0, n, size=n)
    return len(rejected)


def compare_cis(a: ConfidenceInterval, b: ConfidenceInterval) -> CiComparison:
    """Signed per-field differences a - b between two intervals."""
    if a.alpha != b.alpha:
        raise ValueError(
            f"cannot compare intervals at different alpha ({a.alpha} vs {b.alpha})"
        )
    return CiComparison(
        lower_diff=a.lower - b.lower,
        upper_diff=a.upper - b.upper,
        width_diff=a.width - b.width,
    )
