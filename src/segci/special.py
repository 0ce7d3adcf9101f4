"""Student's t distribution, self-contained on the math stdlib.

* ``t_cdf``: the cumulative distribution function.
* ``t_quantile``: the inverse of ``t_cdf``.

Both evaluate the upper tail q = 1/2 I_{df/(df+t^2)}(df/2, 1/2) (or
1/2 - q near the median) directly, as a continued fraction (modified
Lentz) over the stdlib's ``math.lgamma``, never through 1 - CDF, so tail
values keep their relative precision down to q near the smallest
positive double. ``t_quantile`` starts from Hill's expansion (CACM
Algorithm 396, 1970), polishes with Halley steps on ln q, raises
``ArithmeticError`` if they do not converge within their budget, and
caches (p, df) in a bounded LRU cache.

Accuracy is cross-checked against scipy in the test suite.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

__all__ = ["t_cdf", "t_quantile"]

_LN_SQRT_PI = 0.5723649429247001

_CF_MAX_TERMS = 500
_CF_EPS = 1e-15

# Upper-tail solve: at most _SOLVE_MAX_STEPS tail evaluations; stop once
# a Halley step moves t by at most _SOLVE_RTOL relative. Halley converges
# cubically, so the accepted iterate is far more accurate than the
# tolerance; the tolerance only has to sit above the evaluation noise.
_SOLVE_MAX_STEPS = 12
_SOLVE_RTOL = 1e-8
_STANDARD_NORMAL = NormalDist()


def _ln_gamma_ratio(a: float) -> float:
    # ln Gamma(a + 1/2) - ln Gamma(a). Past a = 20 the asymptotic series
    # avoids the cancellation between two large log-gammas.
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1.0 - z * (1.0 / 24.0 - z * (1.0 / 80.0 - z * 17.0 / 1792.0))) / (8.0 * a)


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    # Modified Lentz evaluation of the continued fraction for the
    # incomplete beta integral. Only called with x below the symmetry
    # switch point (a+1)/(a+b+2), where convergence is fast. y = 1 - x
    # is passed in: for b <= 1 the first term is then a sum of
    # non-negative parts, with no cancellation when x is near 1.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = (1.0 - b + qab * y) / qap if b <= 1.0 else 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        # even step
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _tail_term(t: float, df: float) -> tuple[float, float, float]:
    # For t > 0, the upper tail q(t) = 1/2 I_x(df/2, 1/2), x = df/(df+t^2),
    # in whichever form keeps its relative precision: (ln q, -1, pdf/q)
    # in the far regime, (ln(1/2 - q), +1, pdf/(1/2 - q)) near the centre.
    # The middle value is the sign of the term's derivative in t. ln x,
    # ln(1 - x) and the gamma ratio are formed without cancellation, and
    # t is never squared past sqrt(df), so t*t cannot overflow.
    a = 0.5 * df
    root = math.sqrt(df)
    ln_u2 = 2.0 * math.log(t / root)
    if ln_u2 <= 0.0:
        ln_x = -math.log1p(math.exp(ln_u2))
        ln_y = ln_u2 + ln_x
    else:
        ln_y = -math.log1p(math.exp(-ln_u2))
        ln_x = ln_y - ln_u2
    x, y = math.exp(ln_x), math.exp(ln_y)
    ratio = _ln_gamma_ratio(a)
    # x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2)
    ln_front = ratio - _LN_SQRT_PI + a * ln_x + 0.5 * ln_y
    ln_pdf = ratio - 0.5 * math.log(df * math.pi) + (a + 0.5) * ln_x
    if x < (a + 1.0) / (a + 2.5):
        ln_w = ln_front + math.log(_beta_cf(a, 0.5, x, y) / df)
        return ln_w, -1.0, math.exp(ln_pdf - ln_w)
    # 1/2 - q = 1/2 I_y(1/2, df/2)
    ln_w = ln_front + math.log(_beta_cf(0.5, a, y, x))
    return ln_w, 1.0, math.exp(ln_pdf - ln_w)


def t_cdf(t: float, df: float) -> float:
    """Cumulative distribution function of Student's t with df degrees of freedom.

    The tail beyond |t| comes from the same evaluation as ``t_quantile``,
    so a left-tail value keeps its relative precision however small it
    is. t = +inf and -inf give 1.0 and 0.0. Raises ``ValueError`` for a
    NaN t or a df that is not finite and at least 1.
    """
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if not 1.0 <= df < math.inf:
        raise ValueError(f"degrees of freedom must be finite and >= 1, got {df}")
    if math.isinf(t):
        return 1.0 if t > 0.0 else 0.0
    if abs(t) < 1e-20:
        # |CDF - 1/2| <= |t| / sqrt(2 pi), which rounds away; the tail
        # term's pdf/w would overflow for a subnormal t.
        return 0.5
    ln_w, sign, _ = _tail_term(abs(t), df)
    w = math.exp(ln_w)
    q = w if sign < 0.0 else 0.5 - w
    return 1.0 - q if t > 0.0 else q


def _hill_start(q: float, df: float) -> float:
    # Hill (1970), CACM Algorithm 396, for the two-sided level 2q: a
    # normal-quantile expansion for moderate q, a tail series otherwise.
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    ln_y = (2.0 / df) * math.log(d * 2.0 * q)
    if ln_y < -600.0:
        # y underflows; the tail series reduces to t = sqrt(df / y).
        return math.exp(0.5 * (math.log(df) - ln_y))
    y = math.exp(ln_y)
    if y > 0.05 + a:
        z = _STANDARD_NORMAL.inv_cdf(q)
        y = z * z
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (z + 0.6)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * z
        y = math.expm1(a * y * y)
    else:
        y = (
            (1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
             + 0.5 / (df + 4.0)) * y - 1.0
        ) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _upper_quantile(q: float, df: float) -> float:
    # The t > 0 with upper tail q, for 0 < q < 1/2.
    if df == 1.0:
        # Cauchy: t = cot(pi q); tan(pi (1/2 - q)) keeps precision near 1/2.
        return 1.0 / math.tan(math.pi * q) if q < 0.25 else math.tan(math.pi * (0.5 - q))
    if df == 2.0:
        return (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
    t = _hill_start(q, df)
    ln_q, ln_c = math.log(q), math.log(0.5 - q)
    for _ in range(_SOLVE_MAX_STEPS):
        ln_w, sign, rho = _tail_term(t, df)
        # Halley on f(s) = ln w(e^s) - ln w* over s = ln t, with
        # f' = g = sign rho t and f'' = g (1 - k t - g), k = -d(ln pdf)/dt.
        # f is nearly linear in s at both ends of the range of t, so the
        # steps stay accurate even from a poor start.
        f = ln_w - (ln_q if sign < 0.0 else ln_c)
        g = sign * rho * t
        kt = (df + 1.0) / (1.0 + df / t / t)
        denominator = 2.0 * g - f * (1.0 - kt - g)
        step = -2.0 * f / denominator if denominator * g > 0.0 else -f / g
        t *= math.exp(step)
        if abs(step) <= _SOLVE_RTOL:
            return t
    raise ArithmeticError(
        f"t quantile did not converge in {_SOLVE_MAX_STEPS} steps (q={q}, df={df})"
    )


def t_quantile(p: float, df: float) -> float:
    """p-quantile of Student's t with df degrees of freedom.

    Solves q(|t|) = min(p, 1 - p) for the upper tail
    q(t) = 1/2 I_{df/(df+t^2)}(df/2, 1/2), never forming 1 - q, so the
    relative precision of q is kept however small it is. df = 1 and
    df = 2 use their closed forms. Otherwise the solve starts from Hill's
    expansion (CACM Algorithm 396, 1970) and takes Halley steps in ln t
    on ln q (on ln(1/2 - q) near the median) until a step moves t by at
    most 1e-8 relative. The steps converge cubically, and at the usual
    confidence levels the start is already that close, so a solve
    typically costs one tail evaluation. Results are cached on (p, df)
    in a bounded LRU cache, so a repeated call returns the identical
    float.

    Parameters
    ----------
    p : float
        Probability level, strictly inside (0, 1).
    df : float
        Degrees of freedom, finite and at least 1.

    Returns
    -------
    float
        The quantile. Its relative error is below 1e-12 for df up to
        1e5 and below 1e-10 for df up to 1e7 (the continued fraction
        loses digits as df grows), for any q = min(p, 1 - p) in
        (0, 1/2). Where |t| exceeds the double range (df near 1, q near
        the smallest double) the result overflows.

    Raises
    ------
    ValueError
        If p or df is out of range (NaN included).
    ArithmeticError
        If the solve does not converge within its step budget.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if not 1.0 <= df < math.inf:
        raise ValueError(f"degrees of freedom must be finite and >= 1, got {df}")
    return _solve(p, df)


@functools.lru_cache(maxsize=4096)
def _solve(p: float, df: float) -> float:
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return _upper_quantile(1.0 - p, df)  # 1 - p is exact for p >= 1/2
    return -_upper_quantile(p, df)
