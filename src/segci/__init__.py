"""segci: confidence intervals for segmentation performance from aggregate data.

Reconstructs the variability information that published comparison
tables usually omit: a Gamma/log-link model approximates the missing SD
from the mean Dice score, t-based and bootstrap confidence intervals
are built around reported means, model calibration is quantified
against observed data, and corpora of comparisons are analyzed for
whether performance gaps clear the reconstructed interval widths.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public names by defining submodule. A submodule loads on first access
# to one of its names (PEP 562), so `import segci` stays cheap and the
# aggregate path (parametric_ci, approximate_sd) never loads numpy.
_EXPORTS = {
    "calibration": (
        "CalibrationRecord", "CalibrationSummary", "CalibrationTable", "calibrate",
        "export_calibration_points", "write_calibration_csv",
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
        "AggregateReport", "CiComparison", "ConfidenceInterval", "approximate_sd",
        "bootstrap_ci", "compare_cis", "parametric_ci",
    ),
    "simulate": (
        "BetaFamily", "CaseResult", "ConstantFamily", "PairsResult", "SimSpec", "SimulatedRows",
        "demo_corpus", "generate_results", "make_training_pairs",
        "parse_family", "sample_beta",
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


class _Checked:
    """Mixin for a named tuple whose ``__new__`` validates its fields.

    ``_replace`` builds through ``_make``, which would otherwise skip
    the checks in ``__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
