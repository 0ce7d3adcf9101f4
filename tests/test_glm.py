import json
import math

import mpmath as mp
import numpy as np
import pytest

from mc_fixtures import MC_SEEDS, mc_dataset, newton_fit
from segci import (
    GlmFit,
    InsufficientDataError,
    RankDeficientError,
    SimSpec,
    TrainingPair,
    fit_gamma_log_glm,
    generate_results,
    irls_gamma_log,
    load_model,
    make_training_pairs,
    paper_model,
    predict_sd_pct,
    save_model,
    sd_upper_bound_pct,
)
from segci.glm import _qr
from segci.io import iter_per_case_csv, write_per_case_csv

PAPER_COEFFS = (2.0310, 0.0726, -0.0008)


def exact_fit_pairs() -> list[TrainingPair]:
    xs = np.arange(10.0, 91.0, 10.0)
    return [
        TrainingPair(x, math.exp(PAPER_COEFFS[0] + PAPER_COEFFS[1] * x + PAPER_COEFFS[2] * x * x))
        for x in xs
    ]


def numpy_irls(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """The IRLS of irls_gamma_log on numpy's (LAPACK) QR: coefficients, iterations."""
    q, r = np.linalg.qr(design)
    eta = np.log(y)
    resid = np.zeros_like(y)
    for iterations in range(1, 101):
        gamma = q.T @ (eta + resid)
        eta = q @ gamma
        mu = np.exp(eta)
        resid = (y - mu) / mu
        if np.max(np.abs(q.T @ resid)) <= 1e-12:
            break
    return np.linalg.solve(r, gamma), iterations


def mp_newton_fit(x: list[float], y: list[float]) -> list[float]:
    """Gamma/log-link maximum likelihood at 50 digits, by Newton steps on the score.

    The design holds the doubles that fit_gamma_log_glm builds (1, x, x * x
    rounded), so the reference is the exact optimum of the fitted problem.
    """
    with mp.workdps(50):
        design = mp.matrix([[1.0, v, v * v] for v in x])
        b = mp.qr_solve(design, mp.matrix([mp.log(v) for v in y]))[0]
        for _ in range(100):
            eta = design * b
            ratio = [v / mp.exp(eta[i]) for i, v in enumerate(y)]
            score = design.T * mp.matrix([t - 1 for t in ratio])
            step = mp.lu_solve(design.T * mp.diag(ratio) * design, score)
            b += step
            if max(abs(step[k] / b[k]) for k in range(3)) < mp.mpf(10) ** -40:
                break
        return [float(c) for c in b]


class TestIrls:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_numpy_qr_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(6, 200)), int(rng.integers(1, 5))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        beta = rng.normal(scale=0.5, size=p)
        y = np.exp(design @ beta) * rng.gamma(20.0, 1.0 / 20.0, size=n)
        fit = irls_gamma_log(design, y)
        want, iterations = numpy_irls(design, y)
        assert fit.converged and fit.n_obs == n
        assert abs(fit.iterations - iterations) <= 1
        scale = np.max(np.abs(want))
        assert np.max(np.abs(np.asarray(fit.coefficients) - want)) <= 1e-12 * scale

    def test_overflowing_fit_refused(self):
        # numpy's exp overflowed to inf here, and the fit returned NaN coefficients
        with pytest.raises(ArithmeticError, match="overflowed at step 2"):
            irls_gamma_log([[1.0, float(i)] for i in range(4)], [1e300, 1.0, 1e308, 2.0])

    def test_accepts_lists(self):
        design = [[1.0, x, x * x] for x in (10.0, 20.0, 30.0, 45.0, 60.0)]
        y = [3.0, 4.0, 4.5, 6.0, 5.5]
        assert irls_gamma_log(design, y) == irls_gamma_log(np.array(design), np.array(y))

    @pytest.mark.parametrize("design, y", [
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ([[1.0, 2.0], [1.0]], [1.0, 2.0]),
        ([[1.0, 2.0], [1.0, 3.0]], [1.0, 2.0, 3.0]),
        ([], []),
        ([[], []], [1.0, 2.0]),
    ], ids=["one_dimensional", "ragged", "length_mismatch", "empty", "no_columns"])
    def test_shape_refused(self, design, y):
        with pytest.raises(ValueError, match="2-D matrix"):
            irls_gamma_log(design, y)


    def test_intercept_only_recovers_log_mean(self):
        # The score equation sum(y / mu - 1) = 0 forces mu = mean(y).
        fit = irls_gamma_log(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert fit.coefficients[0] == pytest.approx(math.log(2.0), abs=1e-9)
        assert fit.converged

    def test_exact_fit_recovery(self):
        fit = fit_gamma_log_glm(exact_fit_pairs())
        assert fit.converged
        assert fit.iterations <= 5
        for got, want in zip(fit.coefficients, PAPER_COEFFS):
            assert got == pytest.approx(want, abs=1e-7)
        assert fit.deviance == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_refit(self):
        pairs = exact_fit_pairs()
        first = fit_gamma_log_glm(pairs)
        second = fit_gamma_log_glm(pairs)
        assert first.coefficients == second.coefficients
        assert first.deviance == second.deviance

    def test_monte_carlo_matches_newton_oracle(self):
        for seed in MC_SEEDS[:5]:
            x, y = mc_dataset(seed)
            fit = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
            oracle = newton_fit(x, y)
            assert np.max(np.abs(np.asarray(fit.coefficients) - oracle)) < 1e-5

    def test_score_equations_at_convergence(self):
        x, y = mc_dataset(MC_SEEDS[0])
        fit = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
        design = np.column_stack([np.ones_like(x), x, x * x])
        mu = np.exp(design @ np.asarray(fit.coefficients))
        score = design.T @ ((y - mu) / mu)
        assert np.max(np.abs(score)) <= 1e-6 * len(y)

    def test_scaling_shifts_only_intercept(self):
        x, y = mc_dataset(MC_SEEDS[1])
        base = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
        c = 3.7
        scaled = fit_gamma_log_glm([TrainingPair(a, c * b) for a, b in zip(x, y)])
        assert scaled.coefficients[0] - base.coefficients[0] == pytest.approx(
            math.log(c), abs=1e-8
        )
        assert scaled.coefficients[1] == pytest.approx(base.coefficients[1], abs=1e-8)
        assert scaled.coefficients[2] == pytest.approx(base.coefficients[2], abs=1e-8)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_gamma_log_glm([TrainingPair(50.0, 5.0)] * 3)

    def test_nonpositive_response(self):
        pairs = [TrainingPair(x, 1.0) for x in (10.0, 20.0, 30.0, 40.0)]
        pairs[2] = TrainingPair(30.0, 0.0)
        with pytest.raises(ValueError):
            fit_gamma_log_glm(pairs)

    @pytest.mark.parametrize("mean, sd", [
        (math.nan, 2.0), (30.0, math.nan), (30.0, math.inf),
    ], ids=["nan_mean", "nan_sd", "inf_sd"])
    def test_non_finite_pair_refused(self, mean, sd):
        # these used to give NaN coefficients and a 100-step "unconverged" fit
        pairs = [TrainingPair(x, 1.0 + x / 10.0) for x in (10.0, 20.0, 40.0)]
        with pytest.raises(ValueError, match="must"):
            fit_gamma_log_glm([*pairs, TrainingPair(mean, sd)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_refused(self, value):
        # refused before the QR, whose NaN diagonal would read as rank deficiency
        design = np.array([[1.0, x, x * x] for x in (10.0, 20.0, 30.0, 40.0)])
        design[2, 1] = value
        with pytest.raises(ValueError, match=rf"\[2, 1\] is {value}; predictors must be finite") as err:
            irls_gamma_log(design, np.array([1.0, 2.0, 3.0, 4.0]))
        assert not isinstance(err.value, RankDeficientError)

    def test_rank_deficiency_on_constant_predictor(self):
        pairs = [TrainingPair(50.0, s) for s in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(RankDeficientError):
            fit_gamma_log_glm(pairs)

    def test_rank_deficiency_with_fewer_rows_than_columns(self):
        design = np.array([[1.0, 10.0, 100.0], [1.0, 20.0, 400.0]])
        with pytest.raises(RankDeficientError, match="rank 2 < 3"):
            irls_gamma_log(design, np.array([1.0, 2.0]))

    def test_single_family_fit_converges_at_newton_optimum(self, tmp_path):
        # `segci simulate --cases 500 --seed 3`, then `segci fit`: the
        # means span only ~3 points, so cond(X) is ~1e8, and a stopping
        # rule measured on X's scale never passed here.
        cases = tmp_path / "cases.csv"
        write_per_case_csv(generate_results(SimSpec(cases_per_task=500, seed=3)), cases)
        pairs = make_training_pairs(iter_per_case_csv(cases)).pairs
        fit = fit_gamma_log_glm(pairs)
        assert fit.converged
        assert fit.iterations <= 10
        x = np.array([pair.dsc_mean_pct for pair in pairs])
        y = np.array([pair.sd_pct for pair in pairs])
        assert np.max(np.abs(np.asarray(fit.coefficients) - newton_fit(x, y))) < 1e-8

    def test_stopping_rule_ignores_column_and_response_scale(self):
        x, y = mc_dataset(MC_SEEDS[3])
        design = np.column_stack([np.ones_like(x), x, x * x])
        base = irls_gamma_log(design, y)
        scales = np.array([1e3, 1e-2, 1e-4])
        scaled = irls_gamma_log(design * scales, y * 1e6)
        assert scaled.converged and base.converged
        assert scaled.iterations == base.iterations
        expected = np.asarray(base.coefficients) / scales
        expected[0] += math.log(1e6) / scales[0]
        assert np.allclose(scaled.coefficients, expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("width", [1e-3, 1e-4])
    def test_narrow_design_matches_mpmath_optimum(self, width):
        # 20 means spread over `width` points, cond(X) ~ 5e14 and 5e16: the
        # Householder QR converged to coefficients off by 2.9e-6 and 3.5e-4
        x = [80.0 + width * i / 19 for i in range(20)]
        y = [
            math.exp(2.0 + 0.05 * v - 0.0005 * v * v) * (1.0 + 0.2 * math.sin(3 * i))
            for i, v in enumerate(x)
        ]
        fit = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
        assert fit.converged
        for got, want in zip(fit.coefficients, mp_newton_fit(x, y)):
            assert abs(got - want) <= 1e-8 * abs(want)

    def test_q_orthonormal_wherever_rank_rule_accepts(self):
        rng = np.random.default_rng(22)
        accepted = 0
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            x = rng.uniform(0.0, 100.0) + 10.0 ** rng.uniform(-8.0, 1.0) * rng.random(n)
            design = np.column_stack([np.ones(n), x, x * x])
            try:
                irls_gamma_log(design, np.ones(n))
            except RankDeficientError:
                continue
            accepted += 1
            q = np.array(_qr(design.T.tolist())[0])
            assert np.max(np.abs(q @ q.T - np.eye(3))) <= 1e-13
        assert 300 < accepted < 900  # the sweep crosses the rank boundary

    def test_dispersion_positive(self):
        x, y = mc_dataset(MC_SEEDS[2])
        fit = fit_gamma_log_glm([TrainingPair(a, b) for a, b in zip(x, y)])
        assert fit.dispersion is not None and fit.dispersion > 0.0
        # Pearson dispersion should sit near 1/shape = 0.05 for this noise model
        assert fit.dispersion == pytest.approx(0.05, rel=0.3)


class TestPredict:
    def test_paper_value_at_90(self):
        assert predict_sd_pct(PAPER_COEFFS, 90.0) == pytest.approx(8.0447, abs=1e-3)

    def test_paper_value_at_0(self):
        assert predict_sd_pct(PAPER_COEFFS, 0.0) == pytest.approx(7.6224, abs=1e-3)

    def test_constant_model(self):
        coeffs = (math.log(5.0), 0.0, 0.0)
        for x in (0.0, 33.3, 100.0):
            assert predict_sd_pct(coeffs, x) == pytest.approx(5.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            predict_sd_pct(PAPER_COEFFS, -1.0)
        with pytest.raises(ValueError):
            predict_sd_pct(PAPER_COEFFS, 100.5)

    def test_positive_before_clamp(self):
        for x in np.linspace(0.0, 100.0, 51):
            assert predict_sd_pct(PAPER_COEFFS, float(x), clamp=False) > 0.0

    def test_clamp_binds_near_low_edge(self):
        # At x = 0.2 the bound sqrt(0.2 * 99.8) ~ 4.47 sits below the
        # model value ~7.73, so the clamp must engage.
        x = 0.2
        unclamped = predict_sd_pct(PAPER_COEFFS, x, clamp=False)
        clamped = predict_sd_pct(PAPER_COEFFS, x)
        assert unclamped > sd_upper_bound_pct(x)
        assert clamped == pytest.approx(sd_upper_bound_pct(x), abs=1e-12)

    def test_clamp_inactive_in_bulk(self):
        for x in (30.0, 45.375, 60.0, 90.0):
            assert predict_sd_pct(PAPER_COEFFS, x) == predict_sd_pct(
                PAPER_COEFFS, x, clamp=False
            )

    @pytest.mark.parametrize("coeffs", [
        (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (-math.inf, 0.0, 0.0),
        (2.0, 0.0, math.nan), (1e300, 0.0, 0.0), (0.0, 8.0, 0.0),
    ])
    def test_non_finite_sd_refused(self, coeffs):
        # (0, 8, 0) gives ln SD = 720 at x = 90, past the float range
        with pytest.raises(ValueError, match="not finite"):
            predict_sd_pct(coeffs, 90.0)

    def test_accepts_glm_fit(self):
        fit = fit_gamma_log_glm(exact_fit_pairs())
        assert predict_sd_pct(fit, 90.0) == pytest.approx(
            predict_sd_pct(PAPER_COEFFS, 90.0), abs=1e-6
        )


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        fit = fit_gamma_log_glm(exact_fit_pairs())
        path = tmp_path / "model.json"
        save_model(fit, path)
        loaded = load_model(path)
        for got, want in zip(loaded.coefficients, fit.coefficients):
            assert got == pytest.approx(want, abs=1e-6)
        assert loaded.n_obs == fit.n_obs
        assert loaded.converged is True

    def test_schema_fields(self, tmp_path):
        fit = fit_gamma_log_glm(exact_fit_pairs())
        path = tmp_path / "model.json"
        save_model(fit, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"coefficients", "dispersion", "scale", "n_obs", "converged"}
        assert doc["scale"] == "percent"

    def test_save_refuses_nan(self, tmp_path):
        fit = fit_gamma_log_glm(exact_fit_pairs())
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_model(fit._replace(dispersion=math.nan), path)
        assert not path.exists()

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"coefficients": [1, 0, 0], "scale": "percent", "extra": 1}))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("doc", [
        {},
        [2.031, 0.0726, -0.0008],
        {"coefficients": [1, 0], "scale": "percent"},
        {"coefficients": [1, 0, "0"], "scale": "percent"},
        {"coefficients": [1, 0, True], "scale": "percent"},
        {"coefficients": [1e300, 0, 0], "scale": "percent"},
        {"coefficients": [math.nan, 0, 0], "scale": "percent"},
        {"coefficients": [0, math.inf, 0], "scale": "percent"},
        # finite at both ends, but ln SD peaks at 710 at the vertex x = 50
        {"coefficients": [0, 28.4, -0.284], "scale": "percent"},
    ], ids=["empty", "list", "two", "string", "bool", "overflow", "nan", "inf", "vertex"])
    def test_bad_model_document_rejected(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)

    def test_large_finite_model_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"coefficients": [0, 28.0, -0.28], "scale": "percent"}))
        assert load_model(path).coefficients == (0.0, 28.0, -0.28)

    def test_paper_model(self):
        model = paper_model()
        assert isinstance(model, GlmFit)
        assert model.coefficients == PAPER_COEFFS
        assert model.dispersion is None
        assert model.n_obs == 189
