import json
import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from segci import t_cdf, t_quantile
from segci import special
from segci.cli import main

# q = min(p, 1 - p), log-spaced over [1e-15, 0.5); the largest is about 0.2.
TAIL_LEVELS = [float(q) for q in np.logspace(-15, math.log10(0.5), 40, endpoint=False)]
GRID_DF = (1.0, 2.0, 5.0, 30.0, 1e3, 1e5, 1e7)
# |t| log-spaced over [1e-3, 40]
CDF_POINTS = [float(t) for t in np.logspace(-3, math.log10(40.0), 60)]


class TestTCdf:
    @pytest.mark.parametrize("df", GRID_DF)
    def test_matches_scipy(self, df):
        for magnitude in CDF_POINTS:
            for t in (magnitude, -magnitude):
                # far left tails at large df underflow to 0 in both
                ref = float(sp_stats.t.cdf(t, df))
                assert abs(t_cdf(t, df) - ref) <= 1e-9 * ref + 1e-300, (t, df)

    def test_infinite_and_tiny_t(self):
        assert t_cdf(math.inf, 3.0) == 1.0
        assert t_cdf(-math.inf, 3.0) == 0.0
        for t in (0.0, -0.0, 5e-324, -1e-300):
            assert t_cdf(t, 3.0) == 0.5

    @pytest.mark.parametrize(
        "t,df", [(math.nan, 5.0), (1.0, math.nan), (1.0, math.inf), (1.0, 0.5), (1.0, -3.0)]
    )
    def test_domain_error(self, t, df):
        with pytest.raises(ValueError):
            t_cdf(t, df)


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
        special._solve.cache_clear()
        monkeypatch.setattr(special, "_SOLVE_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError):
            t_quantile(0.3, 1.3)
        # a failed solve is not cached
        assert special._solve.cache_info().currsize == 0

    def test_memo_returns_identical_float(self, monkeypatch):
        special._solve.cache_clear()
        first = t_quantile(0.975, 17.0)

        def no_solve(q, df):
            raise AssertionError("cached call solved again")

        monkeypatch.setattr(special, "_upper_quantile", no_solve)
        assert t_quantile(0.975, 17.0) is first
        assert special._solve.cache_info().hits == 1

    def test_memo_is_bounded(self):
        special._solve.cache_clear()
        size = special._solve.cache_info().maxsize
        assert size == 4096
        for df in range(3, size + 10):
            t_quantile(0.975, float(df))
        assert special._solve.cache_info().currsize == size

    def test_tail_evaluations_per_solve(self, monkeypatch):
        calls = []
        tail_term = special._tail_term

        def counted(t, df):
            calls.append(df)
            return tail_term(t, df)

        monkeypatch.setattr(special, "_tail_term", counted)
        special._solve.cache_clear()
        for n in range(4, 3004):
            t_quantile(0.975, n - 1)
        # The Hill start is within the stop tolerance almost always.
        assert len(calls) / 3000 <= 1.05
        calls.clear()
        solves = 0
        for df in GRID_DF[2:]:
            for q in TAIL_LEVELS:
                special._solve.cache_clear()
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
