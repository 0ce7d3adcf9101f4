"""Gamma GLM with log link relating SD to mean DSC on the percent scale.

The model expresses ln(SD) as a quadratic in the mean Dice score, both
measured in percentage points:

    ln SD = b0 + b1 * x + b2 * x^2,   x = mean DSC in [0, 100]

Fitting uses iteratively reweighted least squares. For the Gamma family
with a log link the working weights are constant, so each IRLS step is
the same least-squares projection of the working response
z = eta + (y - mu) / mu, and one QR factorisation of the design serves
the whole fit.

A published reference model ships with the package; see
:func:`paper_model`.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources
from operator import mul
from pathlib import Path
from typing import NamedTuple, Sequence

__all__ = [
    "TrainingPair",
    "GlmFit",
    "InsufficientDataError",
    "RankDeficientError",
    "irls_gamma_log",
    "fit_gamma_log_glm",
    "predict_sd_pct",
    "sd_upper_bound_pct",
    "save_model",
    "load_model",
    "paper_model",
]

MU_FLOOR = 1e-6
STEP_TOL = 1e-12  # on the next IRLS step in Q's basis, in ln-SD units
MAX_ITERATIONS = 100
_MAX_LN_SD = 709.78  # exp() of anything larger overflows a double


class InsufficientDataError(ValueError):
    """Raised when too few observations are supplied to identify the model."""


class RankDeficientError(ValueError):
    """Raised when the design matrix does not have full column rank."""


class TrainingPair(NamedTuple):
    """One (mean DSC, SD) observation on the percentage-point scale."""

    dsc_mean_pct: float
    sd_pct: float


class GlmFit(NamedTuple):
    """Result of an IRLS fit (or a loaded model file).

    ``dispersion`` is the Pearson estimate; it does not influence the
    coefficients. Fields other than the coefficients may be None for
    models loaded from files that do not report them.
    """

    coefficients: tuple[float, float, float]
    dispersion: float | None
    deviance: float | None
    iterations: int
    converged: bool | None
    n_obs: int | None


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(map(mul, a, b))


def _qr(columns: Sequence[Sequence[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """Reduced QR of the n x p matrix with these columns, by classical Gram–Schmidt.

    Each column is projected off the earlier Q columns twice ("twice is
    enough": Giraud, Langou & Rozložník 2005), and R[k][j] sums the two
    projection coefficients. R[k][k] is the norm of what is left of
    column k. Returns Q's first min(n, p) columns and R's rows.
    """
    n = len(columns[0])
    q: list[list[float]] = []
    r = [[0.0] * len(columns) for _ in range(min(n, len(columns)))]
    for j, col in enumerate(columns):
        v = list(col)
        for _ in range(2):
            for k, s in enumerate([_dot(u, v) for u in q]):
                r[k][j] += s
                v = [a - s * b for a, b in zip(v, q[k])]
        if j < n:
            norm = r[j][j] = math.hypot(*v)
            q.append([a / norm for a in v] if norm else v)
    return q, r


def irls_gamma_log(design, y: Sequence[float]) -> GlmFit:
    """Fit a Gamma/log-link GLM for an arbitrary design matrix.

    ``design`` is any n x p matrix given as a sequence of rows (a 2-D
    array or a list of lists), ``y`` the n responses. One reduced QR
    factorisation X = QR by Gram–Schmidt (:func:`_qr`) serves every IRLS
    step (the weights are constant): from mu = max(y, 1e-6), a step projects
    the working response z = eta + (y - mu)/mu to gamma = Q'z, eta = Q gamma.
    The fit stops once the next step, Q'(y - mu)/mu, is at most 1e-12 in
    every coordinate (ln-SD units, whatever the scale of X's columns or
    of y), or after 100 steps; then R b = gamma gives the coefficients.
    The design is rank deficient if a diagonal entry of R is at most
    max(n, p) * eps times its column's norm (``lstsq``'s cut-off, taken
    per column). Inner products are exactly rounded sums (``math.fsum``).
    """
    try:
        rows = [[float(v) for v in row] for row in design]
        y = [float(v) for v in y]
    except TypeError:
        rows = None
    p = len(rows[0]) if rows else 0
    if not p or len(rows) != len(y) or any(len(row) != p for row in rows):
        raise ValueError("design must be a 2-D matrix with one row per response")
    n = len(rows)
    if not all(0.0 < v < math.inf for v in y):
        raise ValueError("Gamma responses must be finite and strictly positive")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"design entry [{i}, {j}] is {v}; predictors must be finite")

    columns = list(zip(*rows))
    q, r = _qr(columns)
    eps_n = max(n, p) * sys.float_info.epsilon
    rank = sum(abs(r[k][k]) > eps_n * math.hypot(*columns[k]) for k in range(len(r)))
    if rank < p:
        raise RankDeficientError(
            f"design matrix has rank {rank} < {p}; predictor values are degenerate"
        )

    q_rows = list(zip(*q))
    mu = [max(v, MU_FLOOR) for v in y]
    eta = [math.log(m) for m in mu]
    resid = [(v - m) / m for v, m in zip(y, mu)]
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        z = [e + d for e, d in zip(eta, resid)]
        gamma = [_dot(col, z) for col in q]
        eta = [_dot(row, gamma) for row in q_rows]
        try:
            mu = [max(math.exp(e), MU_FLOOR) for e in eta]
        except OverflowError:
            raise ArithmeticError(
                f"IRLS diverged: the linear predictor overflowed at step {iterations}"
            ) from None
        resid = [(v - m) / m for v, m in zip(y, mu)]
        if max(abs(_dot(col, resid)) for col in q) <= STEP_TOL:
            converged = True
            break

    coefficients = [0.0] * p
    for k in range(p - 1, -1, -1):  # back substitution in R b = gamma
        s = gamma[k] - math.fsum(r[k][j] * coefficients[j] for j in range(k + 1, p))
        coefficients[k] = s / r[k][k]
    return GlmFit(
        coefficients=tuple(coefficients),  # type: ignore[arg-type]
        dispersion=math.fsum(d * d for d in resid) / (n - p) if n > p else None,
        deviance=2.0 * math.fsum(d - math.log(v / m) for d, v, m in zip(resid, y, mu)),
        iterations=iterations,
        converged=converged,
        n_obs=n,
    )


def fit_gamma_log_glm(data: Sequence[TrainingPair]) -> GlmFit:
    """Fit the quadratic mean-to-SD model on percentage-scale pairs.

    Parameters
    ----------
    data : sequence of TrainingPair
        At least 4 pairs; SDs finite and strictly positive, means within [0, 100].

    Returns
    -------
    GlmFit
        Coefficients (intercept, linear, quadratic), Pearson dispersion
        with n-3 denominator, final deviance and iteration metadata.
    """
    if len(data) < 4:
        raise InsufficientDataError(
            f"need at least 4 training pairs, got {len(data)}"
        )
    x = [pair.dsc_mean_pct for pair in data]
    if not all(0.0 <= v <= 100.0 for v in x):
        raise ValueError("dsc_mean_pct values must lie within [0, 100]")
    return irls_gamma_log([(1.0, v, v * v) for v in x], [pair.sd_pct for pair in data])


def sd_upper_bound_pct(dsc_mean_pct: float) -> float:
    """Largest SD a [0, 100]-bounded variable with this mean can have.

    Attained by the two-point distribution concentrated on 0 and 100.
    """
    return math.sqrt(dsc_mean_pct * (100.0 - dsc_mean_pct))


def _coefficients(model: "GlmFit | Sequence[float]") -> tuple[float, float, float]:
    if isinstance(model, GlmFit):
        return model.coefficients
    b0, b1, b2 = (float(c) for c in model)
    return (b0, b1, b2)


def predict_sd_pct(
    model: "GlmFit | Sequence[float]",
    dsc_mean_pct: float,
    clamp: bool = True,
) -> float:
    """Model SD in percentage points at a mean DSC in [0, 100].

    With ``clamp`` enabled (the default) the prediction is capped at the
    two-point-distribution bound sqrt(x * (100 - x)) wherever that bound
    is positive; at the degenerate endpoints x = 0 and x = 100 the raw
    model value is returned. A model SD that is not finite raises ValueError.
    """
    if not 0.0 <= dsc_mean_pct <= 100.0:
        raise ValueError(f"mean DSC must lie in [0, 100], got {dsc_mean_pct}")
    b0, b1, b2 = _coefficients(model)
    ln_sd = b0 + b1 * dsc_mean_pct + b2 * dsc_mean_pct * dsc_mean_pct
    if not -math.inf < ln_sd < _MAX_LN_SD:
        raise ValueError(f"model SD is not finite at mean DSC {dsc_mean_pct}% (ln SD = {ln_sd})")
    predicted = math.exp(ln_sd)
    if clamp:
        bound = sd_upper_bound_pct(dsc_mean_pct)
        if bound > 0.0:
            predicted = min(predicted, bound)
    return predicted


_MODEL_SCHEMA_KEYS = {"coefficients", "dispersion", "scale", "n_obs", "converged"}


def save_model(fit: GlmFit, path: "str | Path") -> None:
    """Persist a fit as a JSON model document (percent scale, 6 decimals).

    Before the file is opened, the document gets :func:`load_model`'s checks:
    a model that loading would refuse raises ValueError and writes nothing.
    """
    doc = {
        "coefficients": [round(c, 6) for c in fit.coefficients],
        "dispersion": round(fit.dispersion, 6) if fit.dispersion is not None else None,
        "scale": "percent",
        "n_obs": fit.n_obs,
        "converged": fit.converged,
    }
    _model_from_doc(doc)
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _model_from_doc(doc: dict) -> GlmFit:
    coeffs = doc.get("coefficients")
    if not (isinstance(coeffs, list) and len(coeffs) == 3
            and all(type(c) in (int, float) for c in coeffs)):
        raise ValueError(f"model file must carry 3 numeric coefficients, got {coeffs!r}")
    if doc.get("scale") != "percent":
        raise ValueError(f"unsupported model scale {doc.get('scale')!r}")
    b0, b1, b2 = coefficients = tuple(float(c) for c in coeffs)
    # ln SD is a quadratic in x, so on [0, 100] it peaks at an end or at
    # the vertex: a finite SD there is a finite SD everywhere.
    vertex = -b1 / (2.0 * b2) if b2 < 0.0 else 0.0
    for x in (0.0, 100.0, min(max(vertex, 0.0), 100.0)):
        predict_sd_pct(coefficients, x, clamp=False)
    dispersion, n_obs, converged = doc.get("dispersion"), doc.get("n_obs"), doc.get("converged")
    if not (dispersion is None or type(dispersion) in (int, float) and 0 <= dispersion < math.inf):
        raise ValueError(f"model dispersion must be null or finite and >= 0, got {dispersion!r}")
    if not (n_obs is None or type(n_obs) is int and n_obs >= 0):
        raise ValueError(f"model n_obs must be null or an integer >= 0, got {n_obs!r}")
    if not (converged is None or type(converged) is bool):
        raise ValueError(f"model converged must be null or a boolean, got {converged!r}")
    return GlmFit(
        coefficients=coefficients,  # type: ignore[arg-type]
        dispersion=dispersion,
        deviance=None,
        iterations=0,
        converged=converged,
        n_obs=n_obs,
    )


def load_model(path: "str | Path") -> GlmFit:
    """Load a JSON model document produced by :func:`save_model` (a leading BOM is skipped)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _MODEL_SCHEMA_KEYS
    if unknown:
        raise ValueError(f"unknown model file fields: {sorted(unknown)}")
    return _model_from_doc(doc)


def paper_model() -> GlmFit:
    """The published reference model bundled with the package.

    Coefficients (2.0310, 0.0726, -0.0008) on the percent scale; the
    source did not report a dispersion estimate, so that field is None.
    """
    return load_model(resources.files("segci.data").joinpath("paper_model.json"))
