"""Predicted versus observed CI widths over a validation dataset.

For every (task, method) result with an observed SD, the model SD is
predicted from the mean alone and both SDs are turned into CI widths at
the same alpha and test size. The summary reports the signed difference
observed - predicted (median and IQR), restricted to test sizes above a
threshold, with the absolute-difference summary alongside since either
reading of "difference" may be wanted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .descriptive import summarize
from .glm import GlmFit
from .intervals import approximate_sd, parametric_ci

__all__ = [
    "CalibrationRecord",
    "CalibrationSummary",
    "calibrate",
    "write_calibration_csv",
]

DEFAULT_MIN_N = 20


class CalibrationRecord(NamedTuple):
    """Observed and predicted dispersion for one (task, method) result.

    Widths are unclamped so they stay recomputable from (n, sd, alpha).
    """

    task_id: str
    method_id: str
    n: int
    mean_dsc: float
    observed_sd: float
    predicted_sd: float
    observed_width: float
    predicted_width: float

    @property
    def width_diff(self) -> float:
        return self.observed_width - self.predicted_width


class CalibrationSummary(NamedTuple):
    """Median/IQR of width differences over records with n > min_n_filter.

    The statistics are None when the filter removes every record.
    """

    n_records: int
    n_after_filter: int
    min_n_filter: int
    median_width_diff: float | None
    iqr_width_diff: tuple[float, float] | None
    median_abs_width_diff: float | None
    iqr_abs_width_diff: tuple[float, float] | None

    @property
    def empty(self) -> bool:
        return self.n_after_filter == 0


def calibrate(
    results: Iterable[tuple[str, str, int, float, float]],
    model: "GlmFit | Sequence[float]",
    alpha: float = 0.05,
    min_n: int = DEFAULT_MIN_N,
) -> tuple[list[CalibrationRecord], CalibrationSummary]:
    """Build calibration records and their summary.

    Parameters
    ----------
    results : iterable of (task_id, method_id, n, mean_dsc, observed_sd)
        Observed aggregates on the fraction scale, each with n >= 2.
    model : GlmFit or coefficient triple
        Mean-to-SD model used for the predicted side.
    alpha : float
        Significance level for both widths.
    min_n : int
        Only records with n strictly greater than this enter the summary.
    """
    records: list[CalibrationRecord] = []
    for task_id, method_id, n, mean_dsc, observed_sd in results:
        observed_width = parametric_ci(mean_dsc, observed_sd, n, alpha, clamp=False).width
        predicted_sd = approximate_sd(mean_dsc, model)
        predicted_width = parametric_ci(mean_dsc, predicted_sd, n, alpha, clamp=False).width
        records.append(
            CalibrationRecord(
                task_id=str(task_id),
                method_id=str(method_id),
                n=int(n),
                mean_dsc=float(mean_dsc),
                observed_sd=float(observed_sd),
                predicted_sd=predicted_sd,
                observed_width=observed_width,
                predicted_width=predicted_width,
            )
        )
    if not records:
        raise ValueError("calibration needs at least one result")

    kept = [r.width_diff for r in records if r.n > min_n]
    stats = [None] * 4
    if kept:
        signed, absolute = summarize(kept), summarize([abs(d) for d in kept])
        stats = [signed.median, (signed.q1, signed.q3), absolute.median, (absolute.q1, absolute.q3)]
    return records, CalibrationSummary(len(records), len(kept), min_n, *stats)


def write_calibration_csv(records: Sequence[CalibrationRecord], path: "str | Path") -> None:
    """Write calibration points as CSV (6 decimal places)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("predicted_width,observed_width,n\n")
        fh.writelines(
            f"{r.predicted_width:.6f},{r.observed_width:.6f},{r.n}\n" for r in records
        )
