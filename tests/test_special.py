import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sp_stats

from segci import ln_gamma, regularized_incomplete_beta, t_cdf, t_quantile
from segci import special
from segci.cli import main

# q = min(p, 1 - p), log-spaced over [1e-15, 0.5); the largest is about 0.2.
TAIL_LEVELS = [float(q) for q in np.logspace(-15, math.log10(0.5), 40, endpoint=False)]
GRID_DF = (1.0, 2.0, 5.0, 30.0, 1e3, 1e5, 1e7)


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0) - 0.0) <= 1e-10

    def test_at_half(self):
        # ln Gamma(1/2) = ln sqrt(pi)
        assert abs(ln_gamma(0.5) - 0.5723649429) <= 1e-10

    def test_at_ten(self):
        # Gamma(10) = 9! = 362880
        assert abs(ln_gamma(10.0) - 12.8018274801) <= 1e-10

    @pytest.mark.parametrize("x", [-1.0, 0.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)

    def test_against_stdlib_moderate_range(self):
        # 1e-10 absolute is attainable while |ln Gamma| stays small enough
        # that a double has spacing below that tolerance.
        for i in range(2000):
            x = 0.1 + i * (1000.0 - 0.1) / 1999
            assert abs(ln_gamma(x) - math.lgamma(x)) <= 1e-10

    def test_against_stdlib_large_range(self):
        # Above ~1e5 the magnitude of ln Gamma makes 1e-10 absolute finer
        # than one ulp; check a tight relative tolerance instead.
        x = 50.0
        while x <= 1e6:
            assert math.isclose(ln_gamma(x), math.lgamma(x), rel_tol=1e-14, abs_tol=1e-10)
            x *= 1.7


class TestRegularizedIncompleteBeta:
    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_one_two_half(self):
        # closed form 1 - (1 - x)^2
        assert regularized_incomplete_beta(1.0, 2.0, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    @pytest.mark.parametrize(
        "a,b,x", [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, -0.1), (1.0, 1.0, 1.5)]
    )
    def test_domain_error(self, a, b, x):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 50.0),
        b=st.floats(0.05, 50.0),
        # keep x away from the edges so 1 - x is exactly representable
        x=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_complement_identity(self, a, b, x):
        left = regularized_incomplete_beta(a, b, x)
        right = regularized_incomplete_beta(b, a, 1.0 - x)
        assert abs(left + right - 1.0) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.1, 30.0), b=st.floats(0.1, 30.0), x=st.floats(0.0, 1.0))
    def test_matches_scipy(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(sp_special.betainc(a, b, x))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_nondecreasing_in_x(self):
        for a, b in [(0.5, 0.5), (2.0, 5.0), (10.0, 3.0)]:
            previous = 0.0
            for i in range(101):
                value = regularized_incomplete_beta(a, b, i / 100.0)
                assert value >= previous - 1e-15
                previous = value


class TestTQuantile:
    def test_median_is_zero(self):
        assert t_quantile(0.5, 7.0) == 0.0

    @pytest.mark.parametrize(
        "df,expected",
        [(1.0, 12.706205), (29.0, 2.045230), (99.0, 1.984217)],
    )
    def test_reference_values(self, df, expected):
        assert t_quantile(0.975, df) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        assert t_quantile(0.025, 10.0) == pytest.approx(-t_quantile(0.975, 10.0), abs=1e-12)

    def test_strictly_decreasing_in_df_with_normal_limit(self):
        previous = math.inf
        for df in (1, 2, 5, 10, 30, 100, 1000, 1e6):
            value = t_quantile(0.975, df)
            assert value < previous
            previous = value
        assert t_quantile(0.975, 1e6) == pytest.approx(float(sp_stats.t.ppf(0.975, 1e6)), rel=1e-9)

    @pytest.mark.parametrize(
        "p,df",
        [(0.0, 5.0), (1.0, 5.0), (-0.1, 5.0), (0.5, 0.5), (math.nan, 5.0), (0.9, math.nan),
         (0.9, math.inf)],
    )
    def test_domain_error(self, p, df):
        with pytest.raises(ValueError):
            t_quantile(p, df)

    def test_matches_scipy_over_grid(self):
        for df in (1.0, 2.5, 7.0, 42.0, 350.0):
            for p in (0.005, 0.05, 0.33, 0.77, 0.95, 0.995):
                assert t_quantile(p, df) == pytest.approx(
                    float(sp_stats.t.ppf(p, df)), abs=1e-6
                )

    def test_cdf_quantile_roundtrip(self):
        for p in (0.1, 0.6, 0.975):
            for df in (1.0, 9.0, 120.0):
                assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-10)


class TestTQuantileTail:
    """Relative accuracy of the upper-tail solve, far into both tails."""

    @pytest.mark.parametrize("df", GRID_DF)
    def test_matches_scipy_over_log_spaced_tails(self, df):
        for q in TAIL_LEVELS:
            for p in (q, 1.0 - q):
                ref = float(sp_stats.t.ppf(p, df))
                assert abs(t_quantile(p, df) - ref) <= 1e-9 * abs(ref) + 1e-15, (p, df)

    def test_tiny_upper_tail(self):
        # The old CDF inversion returned 12.0 here.
        ref = float(sp_stats.t.ppf(1.0 - 5e-15, 99.0))
        assert t_quantile(1.0 - 5e-15, 99.0) == pytest.approx(ref, rel=1e-9)

    def test_cauchy_far_tail(self):
        p = 1.0 - 1e-13
        # cot(pi q) = 1 / (pi q) (1 + O(q^2)), with q = 1 - p exact
        assert t_quantile(p, 1.0) == pytest.approx(1.0 / (math.pi * (1.0 - p)), rel=1e-9)
        assert t_quantile(p, 1.0) == pytest.approx(float(sp_stats.t.ppf(p, 1.0)), rel=1e-9)

    @pytest.mark.parametrize("df", [1.01, 1.5, 3.0, 7.5])
    def test_smallest_levels_do_not_raise(self, df):
        # As t grows, q = (df/t^2)^(df/2) / (df B(df/2, 1/2)) (1 + O(df/t^2)).
        # scipy's ppf saturates or overflows here, so the asymptote is the reference.
        ln_beta = math.lgamma(df / 2) + math.lgamma(0.5) - math.lgamma(df / 2 + 0.5)
        ln_t = 0.5 * math.log(df) - (math.log(df * 1e-300) + ln_beta) / df
        assert t_quantile(1e-300, df) == pytest.approx(-math.exp(ln_t), rel=1e-12)

    def test_near_the_median(self):
        # q = 1/2 - pdf(0) t + O(t^3); pdf(0) = 3/8 for df = 4.
        assert t_quantile(0.5 - 1e-10, 4.0) == pytest.approx(-1e-10 / 0.375, rel=1e-9)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_memo", {})
        monkeypatch.setattr(special, "_SOLVE_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError):
            t_quantile(0.3, 1.3)

    def test_memo_returns_identical_float(self, monkeypatch):
        monkeypatch.setattr(special, "_memo", {})
        first = t_quantile(0.975, 17.0)

        def no_solve(q, df):
            raise AssertionError("memoized call solved again")

        monkeypatch.setattr(special, "_upper_quantile", no_solve)
        assert t_quantile(0.975, 17.0) is first

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(special, "_memo", {})
        monkeypatch.setattr(special, "_MEMO_SIZE", 3)
        for df in range(3, 10):
            t_quantile(0.975, float(df))
        assert len(special._memo) == 3

    def test_tail_evaluations_per_solve(self, monkeypatch):
        calls = []
        tail_term = special._tail_term

        def counted(t, df):
            calls.append(df)
            return tail_term(t, df)

        monkeypatch.setattr(special, "_tail_term", counted)
        monkeypatch.setattr(special, "_memo", {})
        for n in range(4, 3004):
            t_quantile(0.975, n - 1)
        # The Hill start is within the stop tolerance almost always.
        assert len(calls) / 3000 <= 1.05
        calls.clear()
        solves = 0
        for df in GRID_DF[2:]:
            for q in TAIL_LEVELS:
                special._memo.clear()
                t_quantile(q, df)
                solves += 1
        assert len(calls) / solves <= 1.5

    def test_cli_tiny_alpha_matches_scipy(self, capsys):
        assert main(["ci", "--mean", "0.5", "--n", "100", "--sd", "0.1", "--alpha", "1e-14"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # isf, not ppf(1 - 5e-15): in floats 1 - 5e-15 is the level 1 - 4.996e-15
        half_width = float(sp_stats.t.isf(5e-15, 99)) * 0.1 / 10.0
        assert doc["lower"] == pytest.approx(0.5 - half_width, abs=1e-6)
        assert doc["upper"] == pytest.approx(0.5 + half_width, abs=1e-6)

    @pytest.mark.parametrize("alpha, sd", [("1e-16", 0.1), ("1e-300", 3e-4)])
    def test_cli_alpha_below_double_resolution_matches_scipy(self, capsys, alpha, sd):
        # 1 - alpha/2 rounds to 1.0 here, so the quantile must come from the tail itself
        assert main(["ci", "--mean", "0.5", "--n", "100", "--sd", str(sd), "--alpha", alpha]) == 0
        doc = json.loads(capsys.readouterr().out)
        half_width = float(sp_stats.t.isf(float(alpha) / 2.0, 99)) * sd / 10.0
        assert doc["lower"] == pytest.approx(0.5 - half_width, abs=1e-6)
        assert doc["upper"] == pytest.approx(0.5 + half_width, abs=1e-6)
