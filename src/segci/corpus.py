"""Leaderboard analysis: performance gaps versus reconstructed CI widths.

Each paper contributes a comparison table of methods sharing one test
set. The first-ranked method's CI is reconstructed (model SD unless a
reported SD is preferred and present), the gap to the runner-up is
measured, and the corpus summary aggregates widths, gaps, the fraction
of papers whose runner-up mean falls inside the leader's CI, and the
gap-to-width ratios.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple, Sequence

from . import _checked
from .descriptive import SampleSummary, summarize
from .glm import GlmFit
from .intervals import ConfidenceInterval, reconstruct_ci

__all__ = [
    "MethodResult",
    "PaperRecord",
    "PaperAnalysis",
    "CorpusSummary",
    "rank_methods",
    "analyze_paper",
    "analyze_corpus",
    "summarize_analyses",
]


@_checked
class MethodResult(NamedTuple):
    """One method's mean DSC in a comparison table; ``reported_sd`` is None when unreported."""

    method_id: str
    mean_dsc: float
    reported_sd: float | None = None

    def _check(self) -> None:
        _, mean_dsc, reported_sd = self
        if not 0.0 <= mean_dsc <= 1.0:
            raise ValueError(f"mean_dsc must lie in [0, 1], got {mean_dsc}")
        if reported_sd is not None and not 0.0 <= reported_sd < math.inf:
            raise ValueError(f"reported_sd must be finite and >= 0, got {reported_sd}")


@_checked
class PaperRecord(NamedTuple):
    """One paper's comparison table: methods evaluated on a shared test set."""

    paper_id: str
    test_n: int
    methods: tuple[MethodResult, ...]

    def _check(self) -> None:
        paper_id, test_n, methods = self
        if not isinstance(test_n, Integral) or test_n < 2:
            raise ValueError(f"test_n must be an integer >= 2, got {test_n!r}")
        if not methods:
            raise ValueError(f"paper {paper_id} carries no methods")
        if len({m.method_id for m in methods}) < len(methods):
            raise ValueError(f"paper {paper_id} lists a method id twice")


class PaperAnalysis(NamedTuple):
    """Per-paper outcome; runner-up fields are None for single-method papers."""

    paper_id: str
    first: str
    second: str | None
    delta_dsc: float | None
    ci_first: ConfidenceInterval
    second_within_ci: bool | None
    ratio_delta_over_width: float | None
    sd_source: str


class CorpusSummary(NamedTuple):
    """Corpus aggregates, plus the per-paper analyses sorted by paper_id."""

    n_papers: int
    n_with_runner_up: int
    width: SampleSummary
    delta: SampleSummary | None
    ratio: SampleSummary | None
    overlap_fraction: float | None
    analyses: tuple[PaperAnalysis, ...]


def rank_methods(paper: PaperRecord) -> list[MethodResult]:
    """Methods in descending mean DSC, tied means in ascending method_id."""
    return sorted(paper.methods, key=lambda m: (-m.mean_dsc, m.method_id))


def analyze_paper(
    paper: PaperRecord,
    model: "GlmFit | Sequence[float]",
    alpha: float = 0.05,
    clamp: bool = True,
    prefer_reported_sd: bool = True,
) -> PaperAnalysis:
    """Reconstruct the leader's CI and compare the runner-up against it.

    The leader's SD follows :func:`~segci.intervals.reconstruct_ci`'s rule; pass
    ``prefer_reported_sd=False`` to force the model SD (for sensitivity analysis).
    """
    ranked = rank_methods(paper)
    first = ranked[0]
    ci_first, _, sd_source = reconstruct_ci(
        first.mean_dsc, paper.test_n, first.reported_sd, model, alpha, clamp, prefer_reported_sd
    )

    second = ranked[1] if len(ranked) > 1 else None
    if second is None:
        delta = None
        within = None
        ratio = None
    else:
        delta = first.mean_dsc - second.mean_dsc
        within = ci_first.contains(second.mean_dsc)
        ratio = delta / ci_first.width if ci_first.width > 0.0 else None
    return PaperAnalysis(
        paper_id=paper.paper_id,
        first=first.method_id,
        second=second.method_id if second is not None else None,
        delta_dsc=delta,
        ci_first=ci_first,
        second_within_ci=within,
        ratio_delta_over_width=ratio,
        sd_source=sd_source,
    )


def summarize_analyses(analyses: Sequence[PaperAnalysis]) -> CorpusSummary:
    """Aggregate per-paper analyses; stable over input order (sorts by paper_id)."""
    if not analyses:
        raise ValueError("corpus must contain at least one paper")
    ordered = sorted(analyses, key=lambda a: a.paper_id)
    widths = [a.ci_first.width for a in ordered]
    deltas = [a.delta_dsc for a in ordered if a.delta_dsc is not None]
    ratios = [
        a.ratio_delta_over_width for a in ordered if a.ratio_delta_over_width is not None
    ]
    overlaps = [a.second_within_ci for a in ordered if a.second_within_ci is not None]

    width_summary = summarize(widths)
    delta_summary = summarize(deltas) if deltas else None
    ratio_summary = summarize(ratios) if ratios else None
    overlap_fraction = sum(overlaps) / len(overlaps) if overlaps else None
    return CorpusSummary(
        n_papers=len(ordered),
        n_with_runner_up=len(deltas),
        width=width_summary,
        delta=delta_summary,
        ratio=ratio_summary,
        overlap_fraction=overlap_fraction,
        analyses=tuple(ordered),
    )


def analyze_corpus(
    papers: Sequence[PaperRecord],
    model: "GlmFit | Sequence[float]",
    alpha: float = 0.05,
    clamp: bool = True,
    prefer_reported_sd: bool = True,
) -> CorpusSummary:
    """Analyze every paper and aggregate; see :func:`summarize_analyses`."""
    return summarize_analyses([
        analyze_paper(p, model, alpha=alpha, clamp=clamp, prefer_reported_sd=prefer_reported_sd)
        for p in papers
    ])
