import math

import numpy as np
import pytest

from segci import (
    MethodResult,
    PaperRecord,
    analyze_corpus,
    analyze_paper,
    paper_model,
    rank_methods,
    t_quantile,
)
from segci.rng import substream

MODEL = paper_model()
PAPER_COEFFS = (2.0310, 0.0726, -0.0008)


def paper(paper_id, test_n, *means_and_sds):
    methods = []
    for i, spec in enumerate(means_and_sds):
        if isinstance(spec, tuple):
            mean, sd = spec
        else:
            mean, sd = spec, None
        methods.append(MethodResult(f"m{i + 1}", mean, sd))
    return PaperRecord(paper_id, test_n, tuple(methods))


class TestRankMethods:
    def test_descending(self):
        ranked = rank_methods(paper("p", 10, 0.85, 0.90))
        assert [m.mean_dsc for m in ranked] == [0.90, 0.85]

    def test_stable_ties(self):
        p = PaperRecord(
            "p", 10, (MethodResult("A", 0.90), MethodResult("B", 0.90))
        )
        assert [m.method_id for m in rank_methods(p)] == ["A", "B"]

    def test_ties_rank_by_method_id(self):
        a, b, c = MethodResult("a", 0.9, 0.05), MethodResult("b", 0.9, 0.2), MethodResult("c", 0.95)
        for order in ((a, b, c), (b, a, c), (b, c, a)):
            ranked = rank_methods(PaperRecord("p", 30, order))
            assert [m.method_id for m in ranked] == ["c", "a", "b"]

    def test_single_method(self):
        ranked = rank_methods(paper("p", 10, 0.7))
        assert len(ranked) == 1


class TestAnalyzePaper:
    def test_runner_up_inside_ci(self):
        # leader at 0.90 has CI [0.88404, 0.91596]; a runner-up at 0.89
        # falls inside it
        analysis = analyze_paper(paper("p", 100, 0.90, 0.89), MODEL)
        assert analysis.first == "m1"
        assert analysis.ci_first.lower == pytest.approx(0.88404, abs=1e-5)
        assert analysis.ci_first.upper == pytest.approx(0.91596, abs=1e-5)
        assert analysis.second_within_ci is True

    def test_runner_up_outside_ci(self):
        analysis = analyze_paper(paper("p", 100, 0.90, 0.85), MODEL)
        assert analysis.delta_dsc == pytest.approx(0.05, abs=1e-12)
        assert analysis.second_within_ci is False

    def test_single_method_paper(self):
        analysis = analyze_paper(paper("p", 50, 0.9), MODEL)
        assert analysis.second is None
        assert analysis.delta_dsc is None
        assert analysis.second_within_ci is None
        assert analysis.ratio_delta_over_width is None
        assert analysis.ci_first.width > 0.0

    def test_ratio_value(self):
        analysis = analyze_paper(paper("p", 100, 0.90, 0.89), MODEL)
        assert analysis.ratio_delta_over_width == pytest.approx(0.3132, abs=1e-3)

    def test_ratio_none_for_zero_width(self):
        p = paper("p", 100, (0.90, 0.0), 0.89)
        analysis = analyze_paper(p, MODEL)
        assert analysis.ci_first.width == 0.0
        assert analysis.ratio_delta_over_width is None

    def test_reported_sd_preferred_but_overridable(self):
        p = paper("p", 100, (0.90, 0.02), 0.89)
        with_reported = analyze_paper(p, MODEL)
        assert with_reported.sd_source == "reported"
        forced = analyze_paper(p, MODEL, prefer_reported_sd=False)
        assert forced.sd_source == "model"
        # the SD choice moves the CI but never the ranking gap
        assert with_reported.delta_dsc == forced.delta_dsc
        assert with_reported.ci_first.width < forced.ci_first.width

    def test_degrees_of_freedom_error(self):
        with pytest.raises(ValueError):
            PaperRecord("p", 1, (MethodResult("m", 0.9),))


class TestRecordValidation:
    @pytest.mark.parametrize("sd", [math.nan, math.inf, -math.inf, -0.1])
    def test_reported_sd_must_be_finite(self, sd):
        with pytest.raises(ValueError):
            MethodResult("m", 0.9, sd)

    @pytest.mark.parametrize("test_n", [2.5, 100.0, "100"])
    def test_test_n_must_be_an_integer(self, test_n):
        with pytest.raises(ValueError):
            PaperRecord("p", test_n, (MethodResult("m", 0.9),))

    def test_numpy_integer_test_n_accepted(self):
        assert PaperRecord("p", np.int64(100), (MethodResult("m", 0.9),)).test_n == 100


class TestAnalyzeCorpus:
    def test_two_paper_overlap_fraction(self):
        papers = [
            paper("p1", 100, 0.91, 0.90),  # runner-up inside
            paper("p2", 100, 0.90, 0.85),  # runner-up outside
        ]
        summary = analyze_corpus(papers, MODEL)
        assert summary.overlap_fraction == pytest.approx(0.5, abs=1e-12)

    def test_width_to_delta_ratio_scale(self):
        summary = analyze_corpus([paper("p", 100, 0.90, 0.89)], MODEL)
        assert summary.width.median / summary.delta.median == pytest.approx(3.19, abs=0.01)

    def test_identical_papers_zero_iqr(self):
        papers = [paper(f"p{i}", 100, 0.9, 0.88) for i in range(5)]
        summary = analyze_corpus(papers, MODEL)
        assert summary.width.iqr == 0.0
        assert summary.delta.iqr == 0.0
        assert summary.ratio.iqr == 0.0

    def test_order_invariance(self):
        papers = [
            paper("a", 40, 0.8, 0.79),
            paper("b", 200, 0.95, 0.90),
            paper("c", 15, 0.7, 0.69, 0.6),
        ]
        forward = analyze_corpus(papers, MODEL)
        backward = analyze_corpus(list(reversed(papers)), MODEL)
        assert forward == backward

    def test_single_method_paper_only_in_width_aggregates(self):
        papers = [paper("solo", 50, 0.9), paper("duo", 100, 0.9, 0.89)]
        summary = analyze_corpus(papers, MODEL)
        assert summary.n_papers == 2
        assert summary.n_with_runner_up == 1
        assert summary.width.n == 2
        assert summary.delta.n == 1

    def test_analyses_sorted_by_paper_id(self):
        papers = [paper("b", 40, 0.8, 0.79), paper("c", 15, 0.7), paper("a", 200, 0.95, 0.9)]
        summary = analyze_corpus(papers, MODEL)
        assert [a.paper_id for a in summary.analyses] == ["a", "b", "c"]
        by_id = {p.paper_id: p for p in papers}
        assert summary.analyses == tuple(
            analyze_paper(by_id[pid], MODEL) for pid in ("a", "b", "c")
        )

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            analyze_corpus([], MODEL)


def synthetic_corpus(n_papers=100, seed=314):
    papers = []
    for i in range(n_papers):
        rng = substream(seed, 8, i)
        mean1 = float(rng.uniform(0.55, 0.97))
        n = int(rng.integers(5, 800))
        k = int(rng.integers(1, 6))
        means = [mean1]
        for _ in range(k - 1):
            means.append(max(means[-1] - float(rng.uniform(0.0, 0.06)), 0.0))
        methods = []
        for j, m in enumerate(means):
            reported = float(rng.uniform(0.02, 0.2)) if rng.random() < 0.3 else None
            methods.append(MethodResult(f"m{j}", m, reported))
        papers.append(PaperRecord(f"p{i:03d}", n, tuple(methods)))
    return papers


def test_matches_brute_force_recount_exactly():
    # Straight-line recount: re-derive every CI and comparison with
    # inline arithmetic, then compare aggregates for exact equality.
    papers = synthetic_corpus()
    summary = analyze_corpus(papers, MODEL)

    def quantile(sorted_vals, p):
        n = len(sorted_vals)
        pos = (n - 1) * p
        lo = int(math.floor(pos))
        if lo >= n - 1:
            return sorted_vals[-1]
        frac = pos - lo
        return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])

    widths, deltas, ratios = [], [], []
    inside = total = 0
    b0, b1, b2 = PAPER_COEFFS
    for p in papers:
        best = max(range(len(p.methods)), key=lambda i: (p.methods[i].mean_dsc, -i))
        first = p.methods[best]
        others = [m.mean_dsc for i, m in enumerate(p.methods) if i != best]
        if first.reported_sd is not None:
            sd = first.reported_sd
        else:
            x = first.mean_dsc * 100.0
            sd = math.exp(b0 + b1 * x + b2 * x * x)
            bound = math.sqrt(x * (100.0 - x))
            if bound > 0.0:
                sd = min(sd, bound)
            sd = sd / 100.0
        hw = t_quantile(0.975, p.test_n - 1) * sd / math.sqrt(p.test_n)
        lo = max(0.0, first.mean_dsc - hw)
        hi = min(1.0, first.mean_dsc + hw)
        widths.append(hi - lo)
        if others:
            second = max(others)
            deltas.append(first.mean_dsc - second)
            total += 1
            if lo <= second <= hi:
                inside += 1
            if hi - lo > 0.0:
                ratios.append((first.mean_dsc - second) / (hi - lo))

    assert summary.overlap_fraction == inside / total
    for values, agg in ((widths, summary.width), (deltas, summary.delta), (ratios, summary.ratio)):
        s = sorted(values)
        assert agg.median == quantile(s, 0.5)
        assert agg.q1 == quantile(s, 0.25)
        assert agg.q3 == quantile(s, 0.75)
        assert agg.n == len(values)
