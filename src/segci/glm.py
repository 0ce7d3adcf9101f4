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
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

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


def irls_gamma_log(design: np.ndarray, y: np.ndarray) -> GlmFit:
    """Fit a Gamma/log-link GLM for an arbitrary design matrix.

    One reduced QR factorisation X = QR serves every IRLS step (the
    weights are constant): from mu = max(y, 1e-6), a step projects the
    working response z = eta + (y - mu)/mu to gamma = Q'z, eta = Q gamma.
    The fit stops once the next step, Q'(y - mu)/mu, is at most 1e-12 in
    every coordinate (ln-SD units, whatever the scale of X's columns or
    of y), or after 100 steps; then R b = gamma gives the coefficients.
    The design is rank deficient if a diagonal entry of R is at most
    max(n, p) * eps times its column's norm (``lstsq``'s cut-off, taken
    per column).
    """
    import numpy as np

    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.ndim != 2 or design.shape[0] != y.shape[0]:
        raise ValueError("design must be a 2-D matrix with one row per response")
    n, p = design.shape
    if not np.all((y > 0.0) & (y < np.inf)):
        raise ValueError("Gamma responses must be finite and strictly positive")
    bad = np.argwhere(~np.isfinite(design))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"design entry [{i}, {j}] is {design[i, j]}; predictors must be finite")

    q, r = np.linalg.qr(design)
    cutoff = max(n, p) * np.finfo(float).eps * np.linalg.norm(design, axis=0)[: len(r)]
    rank = np.count_nonzero(np.abs(np.diag(r)) > cutoff)
    if rank < p:
        raise RankDeficientError(
            f"design matrix has rank {rank} < {p}; predictor values are degenerate"
        )

    mu = np.maximum(y, MU_FLOOR)
    eta = np.log(mu)
    resid = (y - mu) / mu
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        gamma = q.T @ (eta + resid)
        eta = q @ gamma
        mu = np.maximum(np.exp(eta), MU_FLOOR)
        resid = (y - mu) / mu
        if np.max(np.abs(q.T @ resid)) <= STEP_TOL:
            converged = True
            break

    return GlmFit(
        coefficients=tuple(float(b) for b in np.linalg.solve(r, gamma)),  # type: ignore[arg-type]
        dispersion=float(np.sum(resid**2)) / (n - p) if n > p else None,
        deviance=float(2.0 * np.sum(resid - np.log(y / mu))),
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
    import numpy as np

    x = np.array([pair.dsc_mean_pct for pair in data], dtype=float)
    y = np.array([pair.sd_pct for pair in data], dtype=float)
    if not np.all((y > 0.0) & (y < np.inf)):
        raise ValueError("all sd_pct values must be finite and strictly positive")
    if not np.all((x >= 0.0) & (x <= 100.0)):
        raise ValueError("dsc_mean_pct values must lie within [0, 100]")
    design = np.column_stack([np.ones_like(x), x, x * x])
    return irls_gamma_log(design, y)


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
    """Persist a fit as a JSON model document (percent scale, 6 decimals)."""
    doc = {
        "coefficients": [round(c, 6) for c in fit.coefficients],
        "dispersion": round(fit.dispersion, 6) if fit.dispersion is not None else None,
        "scale": "percent",
        "n_obs": fit.n_obs,
        "converged": fit.converged,
    }
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
    return GlmFit(
        coefficients=coefficients,  # type: ignore[arg-type]
        dispersion=doc.get("dispersion"),
        deviance=None,
        iterations=0,
        converged=doc.get("converged"),
        n_obs=doc.get("n_obs"),
    )


def load_model(path: "str | Path") -> GlmFit:
    """Load a JSON model document produced by :func:`save_model`."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
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
    text = resources.files("segci.data").joinpath("paper_model.json").read_text("utf-8")
    return _model_from_doc(json.loads(text))
