"""segci: confidence intervals for segmentation performance from aggregate data.

Reconstructs the variability information that published comparison
tables usually omit: a Gamma/log-link model approximates the missing SD
from the mean Dice score, t-based and bootstrap confidence intervals
are built around reported means, model calibration is quantified
against observed data, and corpora of comparisons are analyzed for
whether performance gaps clear the reconstructed interval widths.
"""

from __future__ import annotations

import functools
import importlib
import math

__version__ = "0.1.0"

# Public names by defining submodule. A submodule loads on first access
# to one of its names (PEP 562), so `import segci` stays cheap and the
# aggregate path (parametric_ci, approximate_sd) never loads numpy.
_EXPORTS = {
    "calibration": (
        "CalibrationRecord", "CalibrationSummary", "calibrate", "write_calibration_csv",
    ),
    "corpus": (
        "CorpusSummary", "MethodResult", "PaperAnalysis", "PaperRecord", "analyze_corpus",
        "analyze_paper", "rank_methods", "summarize_analyses",
    ),
    "descriptive": ("SampleSummary", "interpolated_quantile", "summarize"),
    "glm": (
        "GlmFit", "InsufficientDataError", "RankDeficientError", "TrainingPair",
        "fit_gamma_log_glm", "irls_gamma_log", "load_model", "paper_model", "predict_sd_pct",
        "save_model", "sd_upper_bound_pct",
    ),
    "intervals": (
        "CiComparison", "ConfidenceInterval", "approximate_sd", "bootstrap_ci", "compare_cis",
        "parametric_ci", "reconstruct_ci",
    ),
    "simulate": (
        "BetaFamily", "CaseResult", "ConstantFamily", "PairsResult", "SimSpec", "SimulatedRows",
        "generate_results", "make_training_pairs", "parse_family", "sample_beta",
    ),
    "special": ("t_cdf", "t_quantile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "DataFormatError"])


# Defined here rather than in segci.io, which re-exports it, so that the
# CLI can map it to exit 2 without loading the csv module.
class DataFormatError(Exception):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, path=None, line: "int | None" = None):
        self.path = str(path) if path is not None else None
        self.line = line
        where = ""
        if self.path is not None:
            where = f"{self.path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


def _checked(cls):
    """Make every instance of the named tuple ``cls`` pass ``cls._check()``.

    The generated ``__new__`` is wrapped, so building, pickling and
    copying check; ``_make`` builds through it, so ``_replace`` checks too.
    """
    new = cls.__new__

    @functools.wraps(new)  # keeps the field names and defaults in inspect.signature
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def _check_seed(seed) -> None:
    """Refuse a seed outside [0, 2**64): the random streams key on its low 64 bits."""
    from numbers import Integral  # here, so that `import segci` does not load it

    if not (isinstance(seed, Integral) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _number(kind):
    """A parser of text as ``kind`` that refuses "1_00", which ``int`` and ``float`` read as 100.

    Every numeric flag and CSV field is read through ``_INT`` or ``_FLOAT``, or repeats its test.
    """
    def parse(text: str):
        if "_" in text:
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_INT = _number(int)
_FLOAT = _number(float)


def _mean_sd(values) -> "tuple[float, float] | None":
    """The mean and corrected two-pass n-1 SD of ``values``; None if all are equal.

    Outside [2**-432, 2**480) the values are scaled by a power of two before their squares
    are taken: none overflows, and none that matters underflows, as a sample that is not
    constant spreads over at least 2**-53 of its largest value. The mean is fsum's, or
    the exact mean where fsum's partials overflow. A too-large SD raises OverflowError.
    """
    lo, hi = min(values), max(values)
    if lo == hi:
        return None
    n = len(values)
    e = math.frexp(max(-lo, hi))[1]
    k = 0 if -432 < e <= 480 else 480 - e
    scaled = [math.ldexp(v, k) for v in values] if k else values
    try:
        mean = math.fsum(values) / n
    except OverflowError:  # a partial sum left the float range; the exact mean cannot
        from fractions import Fraction

        mean = float(sum(map(Fraction, values)) / n)
    center = math.ldexp(mean, k)
    squares = math.fsum([(v - center) ** 2 for v in scaled])
    # the correction removes what the rounding of the mean added to the squares
    ss = squares - math.fsum(v - center for v in scaled) ** 2 / n
    return mean, math.ldexp(math.sqrt(ss / (n - 1)), -k)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
