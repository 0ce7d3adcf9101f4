"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline). Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from mc_fixtures import MC_SEEDS, MC_TRUE, beta_sample, mc_dataset
from segci import (
    TrainingPair,
    analyze_corpus,
    bootstrap_ci,
    calibrate,
    fit_gamma_log_glm,
    interpolated_quantile,
    paper_model,
    parametric_ci,
    predict_sd_pct,
    t_quantile,
)
from segci.cli import bundled_demo_corpus_path, main
from segci.io import read_corpus_csv
from segci.rng import DOMAIN_BOOTSTRAP, substream
from test_imports import run_fresh

PAPER_COEFFS = (2.0310, 0.0726, -0.0008)


def report(name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {name}: {status}")
            return False

    return _Reporter()


def test_criterion_1_published_model_evaluation():
    with report("1 published-model evaluation"):
        assert predict_sd_pct(PAPER_COEFFS, 90.0) == pytest.approx(8.0447, abs=1e-3)
        assert predict_sd_pct(PAPER_COEFFS, 0.0) == pytest.approx(7.6224, abs=1e-3)


def test_criterion_2_ci_width_consistency():
    with report("2 CI-width consistency"):
        model = paper_model()
        sd = predict_sd_pct(model, 90.0) / 100.0
        ci = parametric_ci(0.90, sd, 100, alpha=0.05)
        assert ci.width == pytest.approx(0.0319, abs=5e-4)

        # The bundled demo corpus stands in for the unavailable source
        # corpus: verify its aggregates sit near the documented targets
        # and that the pipeline matches a straight-line recount.
        papers = read_corpus_csv(bundled_demo_corpus_path())
        summary = analyze_corpus(papers, model)
        assert summary.width.median == pytest.approx(0.03, abs=0.005)
        assert summary.delta.median == pytest.approx(0.01, abs=0.005)
        assert summary.overlap_fraction == pytest.approx(0.649, abs=0.05)

        inside = 0
        b0, b1, b2 = model.coefficients
        for p in papers:
            first = max(p.methods, key=lambda m: m.mean_dsc)
            second = max(m.mean_dsc for m in p.methods if m is not first)
            x = first.mean_dsc * 100.0
            sd = min(math.exp(b0 + b1 * x + b2 * x * x), math.sqrt(x * (100.0 - x))) / 100.0
            hw = t_quantile(0.975, p.test_n - 1) * sd / math.sqrt(p.test_n)
            if max(0.0, first.mean_dsc - hw) <= second <= min(1.0, first.mean_dsc + hw):
                inside += 1
        assert summary.overlap_fraction == inside / len(papers)


def test_criterion_3_special_function_accuracy():
    with report("3 special-function accuracy"):
        assert t_quantile(0.975, 1) == pytest.approx(12.706205, abs=1e-5)
        assert t_quantile(0.975, 29) == pytest.approx(2.045230, abs=1e-5)
        assert t_quantile(0.975, 99) == pytest.approx(1.984217, abs=1e-5)
        assert t_quantile(0.975, 1e6) == pytest.approx(1.959964, abs=1e-3)

        for df in (99, 1e6):
            start = time.perf_counter()
            calls = 200
            for _ in range(calls):
                t_quantile(0.975, df)
            per_call = (time.perf_counter() - start) / calls
            assert per_call < 1e-3, f"t_quantile(df={df}) took {per_call * 1e3:.3f} ms per call"


def test_criterion_4_irls_correctness():
    with report("4 IRLS correctness"):
        start = time.perf_counter()

        # (a) exact-fit recovery in few iterations
        xs = np.arange(10.0, 91.0, 10.0)
        pairs = [
            TrainingPair(x, math.exp(PAPER_COEFFS[0] + PAPER_COEFFS[1] * x + PAPER_COEFFS[2] * x * x))
            for x in xs
        ]
        fit = fit_gamma_log_glm(pairs)
        assert fit.iterations <= 5
        for got, want in zip(fit.coefficients, PAPER_COEFFS):
            assert got == pytest.approx(want, abs=5e-7)

        # (b) seeded Monte-Carlo recovery within +/-10% on >= 18/20
        # datasets, and (c) score equations at every convergence point
        hits = 0
        for seed in MC_SEEDS:
            x, y = mc_dataset(seed)
            mc_fit = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
            assert mc_fit.converged
            design = np.column_stack([np.ones_like(x), x, x * x])
            mu = np.exp(design @ np.asarray(mc_fit.coefficients))
            score = design.T @ ((y - mu) / mu)
            assert np.max(np.abs(score)) <= 1e-6 * len(y)
            rel = np.abs(
                (np.asarray(mc_fit.coefficients) - np.asarray(MC_TRUE)) / np.asarray(MC_TRUE)
            )
            hits += bool(np.all(rel <= 0.10))
        assert hits >= 18, f"only {hits}/20 Monte-Carlo fits within 10%"

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_5_parametric_bootstrap_agreement():
    with report("5 parametric-bootstrap agreement"):
        start = time.perf_counter()
        values = beta_sample(100, 8.0, 2.0, seed=42)
        boot = bootstrap_ci(values, alpha=0.05, n_resamples=10_000, seed=42)
        para = parametric_ci(float(values.mean()), float(values.std(ddof=1)), 100, 0.05)
        assert abs(boot.lower - para.lower) < 0.01
        assert abs(boot.upper - para.upper) < 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_6_brute_force_corpus_equivalence():
    with report("6 brute-force corpus equivalence"):
        from test_corpus import synthetic_corpus, test_matches_brute_force_recount_exactly

        start = time.perf_counter()
        assert len(synthetic_corpus()) == 100
        test_matches_brute_force_recount_exactly()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 6 took {elapsed:.2f}s"


def reference_bootstrap(values, n_resamples, seed, order, alpha=0.05):
    """Percentile bootstrap with a fresh stream per resample, drawn in ``order``."""
    arr = np.sort(np.asarray(values, dtype=float))
    means = np.empty(n_resamples)
    for r in order:
        idx = substream(seed, DOMAIN_BOOTSTRAP, r).integers(0, arr.size, size=arr.size)
        means[r] = math.fsum(arr[idx]) / arr.size
    means.sort()
    return interpolated_quantile(means, alpha / 2.0), interpolated_quantile(means, 1.0 - alpha / 2.0)


def test_criterion_7_determinism(tmp_path, capsys):
    with report("7 determinism"):
        sim_a = tmp_path / "a.csv"
        sim_b = tmp_path / "b.csv"
        sim_args = ["--tasks", "3", "--methods", "5", "--cases", "20", "--seed", "11"]
        assert main(["simulate", "--output", str(sim_a), *sim_args]) == 0
        assert main(["simulate", "--output", str(sim_b), *sim_args]) == 0
        assert sim_a.read_bytes() == sim_b.read_bytes()

        # fresh interpreter: a separate process must write the same bytes
        sim_c = tmp_path / "c.csv"
        proc = run_fresh("-m", "segci.cli", "simulate", "--output", str(sim_c), *sim_args)
        assert proc.returncode == 0, proc.stderr
        assert sim_c.read_bytes() == sim_a.read_bytes()

        fit_a = tmp_path / "a.json"
        fit_b = tmp_path / "b.json"
        assert main(["fit", "--input", str(sim_a), "--output", str(fit_a)]) == 0
        assert main(["fit", "--input", str(sim_b), "--output", str(fit_b)]) == 0
        assert fit_a.read_bytes() == fit_b.read_bytes()
        capsys.readouterr()

        # each resample depends only on (seed, resample index): rebuilding
        # every resample from a fresh stream, in reversed order and in
        # shuffled blocks, gives the same interval bit for bit
        values = beta_sample(60, 8.0, 2.0, seed=3)
        ci = bootstrap_ci(values, n_resamples=2_000, seed=19)
        assert bootstrap_ci(values, n_resamples=2_000, seed=19) == ci
        blocks = [range(start, start + 500) for start in (1500, 0, 1000, 500)]
        orders = [range(1_999, -1, -1), [r for block in blocks for r in block]]
        for order in orders:
            assert reference_bootstrap(values, 2_000, 19, order) == (ci.lower, ci.upper)


def test_criterion_8_calibration_identity():
    with report("8 calibration identity"):
        model = paper_model()
        results = []
        for i, n in enumerate((5, 15, 20, 21, 40, 200)):
            mean = 0.70 + 0.04 * i
            sd = predict_sd_pct(model, mean * 100.0) / 100.0
            results.append((f"t{i}", "m", n, mean, sd))
        records, summary = calibrate(results, model, alpha=0.05, min_n=20)
        assert summary.median_width_diff == 0.0
        assert summary.iqr_width_diff == (0.0, 0.0)
        # the n > 20 filter keeps exactly the records with n = 21, 40, 200
        assert summary.n_after_filter == 3
        kept = [r.n for r in records if r.n > 20]
        assert kept == [21, 40, 200]
