import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_fixtures import beta_sample
from segci import (
    ConfidenceInterval,
    approximate_sd,
    bootstrap_ci,
    compare_cis,
    paper_model,
    parametric_ci,
    reconstruct_ci,
)
from segci.intervals import _resample_indices, _resample_means
from segci.rng import DOMAIN_BOOTSTRAP, substream, substreams

PAPER_COEFFS = (2.0310, 0.0726, -0.0008)


class TestApproximateSd:
    def test_paper_model_at_090(self):
        sd = approximate_sd(0.90, paper_model())
        assert sd == pytest.approx(0.080447, abs=1e-5)

    def test_paper_model_at_zero(self):
        # read 0.076224, the uncapped model: every case of a mean-0 sample scored 0
        assert approximate_sd(0.0, paper_model()) == 0.0
        assert approximate_sd(1.0, paper_model()) == 0.0

    def test_constant_model(self):
        sd = approximate_sd(0.42, (math.log(5.0), 0.0, 0.0))
        assert sd == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("mean", [1.5, -0.1, math.nan], ids=["above", "below", "nan"])
    def test_mean_refused_on_the_fraction_scale(self, mean):
        # read "mean DSC must lie in [0, 100], got 150.0", the percent scale of the model
        with pytest.raises(ValueError) as info:
            approximate_sd(mean, paper_model())
        assert str(info.value) == f"mean_dsc must lie in [0, 1], got {mean}"

    def test_non_number_mean_refused(self):
        # ended in a bare TypeError from <=, also through reconstruct_ci
        message = "mean_dsc must be a real number, got '0.9'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            approximate_sd("0.9", paper_model())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct_ci("0.9", 10, None, paper_model())

    # A published aggregate (mean, n, reported SD) that reconstruct_ci refuses.
    def test_report_validation(self):
        with pytest.raises(ValueError):
            reconstruct_ci(1.2, 10, None, paper_model())
        with pytest.raises(ValueError):
            reconstruct_ci(0.5, 0, None, paper_model())
        with pytest.raises(ValueError):
            reconstruct_ci(0.5, 10, -0.1, paper_model())

    @pytest.mark.parametrize("mean,sd", [
        (math.nan, None), (math.inf, None), (-math.inf, None),
        (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
    ])
    def test_report_rejects_non_finite(self, mean, sd):
        with pytest.raises(ValueError):
            reconstruct_ci(mean, 10, sd, paper_model())

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_report_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError):
            reconstruct_ci(0.5, n, None, paper_model())


class TestReconstructCi:
    def test_sd_source_rule(self):
        model = paper_model()
        model_sd = approximate_sd(0.90, model)
        assert reconstruct_ci(0.90, 100, None, model)[1:] == (model_sd, "model")
        assert reconstruct_ci(0.90, 100, 0.06, model)[1:] == (0.06, "reported")
        forced = reconstruct_ci(0.90, 100, 0.06, model, prefer_reported_sd=False)
        assert forced[1:] == (model_sd, "model")
        assert forced[0] == reconstruct_ci(0.90, 100, None, model)[0]

    def test_interval_is_parametric_ci_of_the_sd_used(self):
        ci, sd, _ = reconstruct_ci(0.99, 5, None, paper_model(), alpha=0.1, clamp=False)
        assert ci == parametric_ci(0.99, sd, 5, 0.1, clamp=False)
        assert reconstruct_ci(0.99, 5, 0.05, paper_model())[0] == parametric_ci(0.99, 0.05, 5)

    @pytest.mark.parametrize("mean", [1.5, -0.5, math.nan], ids=["above", "below", "nan"])
    @pytest.mark.parametrize("sd", [None, 0.1], ids=["model_sd", "reported_sd"])
    def test_mean_refused_on_the_fraction_scale(self, mean, sd):
        # the model-SD path gave the percent-scale "mean DSC must lie in [0, 100], got 150.0"
        with pytest.raises(ValueError) as info:
            reconstruct_ci(mean, 10, sd, paper_model())
        assert str(info.value) == f"mean_dsc must lie in [0, 1], got {mean}"


class TestParametricCi:
    def test_worked_example_n100(self):
        ci = parametric_ci(0.90, 0.080447, 100)
        assert ci.lower == pytest.approx(0.88404, abs=1e-5)
        assert ci.upper == pytest.approx(0.91596, abs=1e-5)
        assert ci.width == pytest.approx(0.03193, abs=1e-5)
        assert ci.method == "parametric_t"
        assert not ci.clamped

    def test_worked_example_n30(self):
        ci = parametric_ci(0.90, 0.080447, 30)
        assert ci.lower == pytest.approx(0.86996, abs=1e-5)
        assert ci.upper == pytest.approx(0.93004, abs=1e-5)
        assert ci.width == pytest.approx(0.06008, abs=1e-5)

    def test_zero_sd_degenerates(self):
        ci = parametric_ci(0.90, 0.0, 50)
        assert ci.lower == ci.upper == 0.90

    def test_clamping(self):
        clamped = parametric_ci(0.99, 0.2, 4)
        assert clamped.upper == 1.0
        assert clamped.clamped
        free = parametric_ci(0.99, 0.2, 4, clamp=False)
        assert free.upper > 1.0
        assert not free.clamped

    def test_mean_always_inside(self):
        for mean in (0.0, 0.01, 0.5, 0.99, 1.0):
            for n in (2, 10, 1000):
                ci = parametric_ci(mean, 0.3, n)
                assert ci.lower <= mean <= ci.upper

    def test_width_strictly_decreasing_in_n(self):
        widths = [parametric_ci(0.8, 0.1, n, clamp=False).width for n in (2, 5, 20, 100, 1000)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_width_vanishes_for_huge_n(self):
        # at n = 1e6 and sd = 0.3 the margin of error is t * sd / 1000 ~ 5.9e-4
        ci = parametric_ci(0.5, 0.3, 10**6)
        assert ci.width / 2.0 < 1e-3
        assert parametric_ci(0.5, 0.3, 4 * 10**6).width < 1e-3

    def test_width_linear_in_sd(self):
        base = parametric_ci(0.5, 0.1, 50, clamp=False).width
        tripled = parametric_ci(0.5, 0.3, 50, clamp=False).width
        assert tripled == pytest.approx(3.0 * base, rel=1e-12)

    @pytest.mark.parametrize("mean,sd,n,message", [
        (1.5, 0.01, 10, "mean_dsc must lie in [0, 1], got 1.5"),  # was [1.4928, 1.0]
        (math.nan, 0.1, 10, "mean_dsc must lie in [0, 1], got nan"),
        (0.5, 0.1, 0, "n must be an integer >= 2 for n-1 degrees of freedom, got 0"),
        (0.5, 0.1, 2.0, "n must be an integer >= 2 for n-1 degrees of freedom, got 2.0"),
        (0.5, 0.1, 2.5, "n must be an integer >= 2 for n-1 degrees of freedom, got 2.5"),
        (0.5, 0.1, "10", "n must be an integer >= 2 for n-1 degrees of freedom, got '10'"),
        (0.5, -0.1, 10, "sd must be finite and >= 0, got -0.1"),
        (0.5, math.inf, 10, "sd must be finite and >= 0, got inf"),
    ])
    def test_refuses_what_no_aggregate_holds(self, mean, sd, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parametric_ci(mean, sd, n)

    def test_errors(self):
        with pytest.raises(ValueError):
            parametric_ci(0.5, 0.1, 1)
        with pytest.raises(ValueError):
            parametric_ci(0.5, -0.1, 10)
        with pytest.raises(ValueError):
            parametric_ci(0.5, 0.1, 10, alpha=1.5)

    def test_alpha_whose_half_underflows_refused(self):
        # 5e-324 / 2 rounds to 0, which t_quantile refused under the name p
        with pytest.raises(ValueError, match=r"^alpha must lie in \[1e-323, 1\), got 5e-324$"):
            parametric_ci(0.5, 0.1, 10, alpha=5e-324)
        assert parametric_ci(0.5, 0.1, 10, alpha=1e-323).clamped

    def test_unclamped_overflow_refused(self):
        # t(0.975, 1) * 1e308 / sqrt(2) overflows: the interval was (-inf, inf)
        with pytest.raises(ValueError, match=r"overflows: sd=1e\+308 at n=2"):
            parametric_ci(0.5, 1e308, 2, clamp=False)
        clamped = parametric_ci(0.5, 1e308, 2)
        assert (clamped.lower, clamped.upper, clamped.clamped) == (0.0, 1.0, True)

    @pytest.mark.parametrize("mean,sd,alpha", [
        (math.nan, 0.1, 0.05), (math.inf, 0.1, 0.05), (-math.inf, 0.1, 0.05),
        (0.5, math.nan, 0.05), (0.5, math.inf, 0.05),
        (0.5, 0.1, math.nan), (0.5, 0.1, math.inf),
    ])
    def test_rejects_non_finite(self, mean, sd, alpha):
        # NaN passes `sd < 0` and min/max would clamp it to [0, 1].
        with pytest.raises(ValueError):
            parametric_ci(mean, sd, 10, alpha=alpha)

    @pytest.mark.parametrize("mean,sd,alpha,shown", [
        ("0.9", 0.1, 0.05, "mean_dsc must be a real number, got '0.9'"),
        (0.9, None, 0.05, "sd must be a real number, got None"),
        (0.9, 0.1, "0.05", "alpha must be a real number, got '0.05'"),
    ], ids=["mean_dsc", "sd", "alpha"])
    def test_rejects_non_number(self, mean, sd, alpha, shown):
        # each ended in a bare TypeError from a comparison or a division
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            parametric_ci(mean, sd, 10, alpha=alpha)


class TestBootstrapCi:
    def test_constant_sample(self):
        ci = bootstrap_ci([0.8] * 25, seed=123, n_resamples=500)
        assert ci.lower == ci.upper == 0.8
        assert ci.method == "bootstrap_percentile"

    @pytest.mark.parametrize("sample", [
        [0.0, -0.0],
        [0.0, -0.0, -0.0],
        [0.0, 0.0, -0.0, -0.0],
        [-0.0, -0.0, -0.0],
    ])
    def test_signed_zero_constant_sample(self, sample):
        # The result depends on the multiset only: -0.0 only when every
        # value is -0.0, whatever the input order.
        want = (-0.0).hex() if all(math.copysign(1.0, v) < 0 for v in sample) else (0.0).hex()
        for perm in itertools.permutations(sample):
            ci = bootstrap_ci(list(perm), seed=5, n_resamples=100)
            assert (ci.lower.hex(), ci.upper.hex()) == (want, want)

    def test_two_values(self):
        ci = bootstrap_ci([0.0, 1.0], seed=9, n_resamples=10_000)
        assert 0.0 <= ci.lower <= 0.5 <= ci.upper <= 1.0

    def test_endpoints_within_sample_range(self):
        values = beta_sample(40, 2.0, 5.0, seed=21)
        ci = bootstrap_ci(values, seed=4, n_resamples=2_000)
        assert values.min() <= ci.lower <= ci.upper <= values.max()

    def test_deterministic_and_permutation_invariant(self):
        values = beta_sample(30, 8.0, 2.0, seed=13)
        ci_a = bootstrap_ci(values, seed=77, n_resamples=1_000)
        ci_b = bootstrap_ci(values, seed=77, n_resamples=1_000)
        shuffled = values[::-1].copy()
        ci_c = bootstrap_ci(shuffled, seed=77, n_resamples=1_000)
        assert ci_a == ci_b == ci_c

    @pytest.mark.parametrize(
        "n, seed, lower, upper",
        [
            (50, 3, "0x1.8c50bff72074cp-1", "0x1.aed46cded5473p-1"),
            (2000, 8, "0x1.97b2f2bfbe865p-1", "0x1.9d30f364d2016p-1"),
        ],
        ids=["n50", "n2000"],
    )
    def test_endpoints_pinned(self, n, seed, lower, upper):
        # frozen endpoints, bit for bit
        values = beta_sample(n, 8.0, 2.0, seed=seed)
        ci = bootstrap_ci(values, seed=seed, n_resamples=1_000)
        assert (ci.lower.hex(), ci.upper.hex()) == (lower, upper)

    def test_agreement_with_parametric(self):
        # The documented cross-check: on a well-behaved sample of 100
        # cases the percentile bootstrap and the t interval nearly agree.
        values = beta_sample(100, 8.0, 2.0, seed=42)
        boot = bootstrap_ci(values, alpha=0.05, n_resamples=10_000, seed=42)
        para = parametric_ci(float(values.mean()), float(values.std(ddof=1)), 100)
        assert abs(boot.lower - para.lower) < 0.01
        assert abs(boot.upper - para.upper) < 0.01

    def test_errors(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=1)
        with pytest.raises(ValueError):
            bootstrap_ci([0.5, 0.6], n_resamples=50, seed=1)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got "):
            bootstrap_ci([0.1, 0.5, 0.9], alpha=alpha, seed=1)

    @pytest.mark.parametrize("alpha, smallest", [(1e-6, 1_999_999), (1e-12, 1_999_999_999_999),
                                                 (0.001, 1999)])
    def test_rejects_alpha_too_small_for_resamples(self, alpha, smallest):
        # 1e-6 and 1e-12 used to give (0.34075, 0.66802) and (0.34075, 0.66804) here:
        # next to the smallest and largest resample means, whatever alpha is
        values = [float(v) for v in np.random.default_rng(3).uniform(size=30)]
        with pytest.raises(ValueError, match=f"n_resamples=1000: .* use n_resamples >= {smallest}$"):
            bootstrap_ci(values, alpha=alpha, n_resamples=1000, seed=1)
        with pytest.raises(ValueError, match=f"n_resamples=1000: .* use n_resamples >= {smallest}$"):
            bootstrap_ci([0.5] * 30, alpha=alpha, n_resamples=1000, seed=1)

    def test_smallest_resample_count_named_is_accepted(self):
        values = [0.1, 0.5, 0.7, 0.9]
        with pytest.raises(ValueError, match="n_resamples=1998: .* use n_resamples >= 1999$"):
            bootstrap_ci(values, alpha=0.001, n_resamples=1998, seed=1)
        ci = bootstrap_ci(values, alpha=0.001, n_resamples=1999, seed=1)
        assert ci.lower <= ci.upper
        with pytest.raises(ValueError, match="use a larger alpha"):
            bootstrap_ci(values, alpha=5e-324, n_resamples=1999, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bootstrap_ci([0.5, bad, 0.7], seed=1)
        with pytest.raises(ValueError, match="finite"):
            bootstrap_ci([bad, bad], seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_rejects_seed_outside_64_bits(self, seed):
        # -1 drew the resamples of 2**64 - 1, and 1.5 failed with a bare TypeError
        message = f"seed must be an integer in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bootstrap_ci([0.5, 0.6, 0.7], seed=seed)

    @pytest.mark.parametrize("n_resamples, shown", [
        (10000.0, "10000.0"), (150.5, "150.5"), ("200", "'200'"),
    ], ids=["10000.0", "150.5", "str"])
    def test_rejects_non_integer_resample_count(self, n_resamples, shown):
        # 10000.0 failed with numpy's bare TypeError, and "200" with one from <
        message = f"n_resamples must be an integer >= 100, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bootstrap_ci([0.1, 0.5, 0.9], n_resamples=n_resamples)

    def test_rejects_non_number_alpha(self):
        # it ended in a bare TypeError from <
        with pytest.raises(ValueError, match=r"^alpha must be a real number, got '0\.05'$"):
            bootstrap_ci([0.1, 0.5, 0.9], alpha="0.05")

    def test_rejects_overflowing_resample_sums(self):
        with pytest.raises(ValueError, match="overflow"):
            bootstrap_ci([0.5, 1e308, 1e308, 0.7], seed=1)


# Sample values: unit-interval scores, magnitudes across the whole float
# range (small enough that no resample sum of up to 3000 draws overflows),
# and the zeros, subnormals and extremes of the format.
_VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -0.5, 1e300]),
)


def _fsum_means(arr, n_resamples, seed):
    n = arr.size
    return [
        math.fsum(arr[substream(seed, DOMAIN_BOOTSTRAP, r).integers(0, n, size=n)]) / n
        for r in range(n_resamples)
    ]


class TestResampleMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(_VALUES, min_size=1, max_size=8),
        n=st.integers(2, 3000),
        n_resamples=st.integers(1, 150),
        seed=st.integers(0, 2**32),
    )
    @example(pool=[0.25, 0.75], n=2000, n_resamples=100, seed=0)  # full blocks, then a partial one
    @example(pool=[5e-324, -0.0, 0.0, 1e300, -1e-300], n=3000, n_resamples=45, seed=1)
    def test_bit_identical_to_fsum_per_resample(self, pool, n, n_resamples, seed):
        arr = np.sort(np.array(random.Random(seed).choices(pool, k=n)))
        got = _resample_means(arr, n_resamples, seed)
        want = _fsum_means(arr, n_resamples, seed)
        assert [m.hex() for m in got.tolist()] == [m.hex() for m in want]


def _integers_rows(seed, start, rows, n):
    return np.array([
        substream(seed, DOMAIN_BOOTSTRAP, r).integers(0, n, size=n)
        for r in range(start, start + rows)
    ])


def _buffers(rows, n):
    return np.empty((rows, n), dtype=np.int64), np.empty((rows, (n + 1) // 2), dtype=np.uint64)


class TestResampleIndices:
    @pytest.mark.parametrize("n, rows", [
        (2, 40), (3, 40), (5, 40), (7, 40), (97, 30), (1999, 12), (2000, 12), (3001, 10),
        (4, 20), (64, 20), (1024, 10), (2048, 10),
        (2**20 + 7, 2), (1000003, 2),
    ])
    def test_equals_integers(self, n, rows):
        idx, raw = _buffers(rows, n)
        redrawn = _resample_indices(substreams(11, DOMAIN_BOOTSTRAP), 5, idx, raw)
        assert np.array_equal(idx, _integers_rows(11, 5, rows, n))
        if n & (n - 1) == 0:
            # 2^32 mod n == 0 for a power of two: no draw can be rejected
            assert redrawn == 0

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    def test_partial_blocks(self, n):
        # blocks as _resample_means cuts them: full ones, then a partial
        # one written into the front rows of the same buffers
        block, n_resamples = 7, 25
        idx, raw = _buffers(block, n)
        streams = substreams(4, DOMAIN_BOOTSTRAP)
        got = []
        for start in range(0, n_resamples, block):
            rows = min(block, n_resamples - start)
            _resample_indices(streams, start, idx[:rows], raw[:rows])
            got.extend(idx[:rows].copy())
        assert np.array_equal(np.array(got), _integers_rows(4, 0, n_resamples, n))

    def test_rejected_draw_redraws_resample(self):
        # (seed 0, n 3000, resample 79) is pinned because numpy's Lemire map
        # rejects its 1726th draw: (u * n) mod 2^32 < 2^32 mod n.
        seed, n, r = 0, 3000, 79
        words = substream(seed, DOMAIN_BOOTSTRAP, r).bit_generator.random_raw((n + 1) // 2)
        draws = [int(w) >> shift & 0xFFFFFFFF for w in words.tolist() for shift in (0, 32)][:n]
        assert [i for i, u in enumerate(draws) if u * n % 2**32 < 2**32 % n] == [1725]

        idx, raw = _buffers(10, n)
        redrawn = _resample_indices(substreams(seed, DOMAIN_BOOTSTRAP), 75, idx, raw)
        assert redrawn == 1
        assert np.array_equal(idx, _integers_rows(seed, 75, 10, n))
        # without the redraw the row would be the plain map of its words
        assert idx[r - 75].tolist() != [u * n >> 32 for u in draws]

    def test_resample_means_with_rejected_draw(self):
        # resamples 0-99 of seed 0 at n = 3000 include the redrawn resample 79
        arr = np.sort(beta_sample(3000, 8.0, 2.0, seed=1))
        got = _resample_means(arr, 100, 0)
        assert [m.hex() for m in got.tolist()] == [m.hex() for m in _fsum_means(arr, 100, 0)]

    def test_refuses_n_above_2_32(self):
        # views of one element: nothing of this size is allocated
        n = 2**32 + 1
        idx = np.broadcast_to(np.zeros(1, dtype=np.int64), (1, n))
        raw = np.broadcast_to(np.zeros(1, dtype=np.uint64), (1, (n + 1) // 2))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _resample_indices(substreams(0, DOMAIN_BOOTSTRAP), 0, idx, raw)


class TestCompareCis:
    def test_identical_all_zero(self):
        a = parametric_ci(0.9, 0.1, 30)
        diff = compare_cis(a, a)
        assert diff.lower_diff == diff.upper_diff == diff.width_diff == 0.0

    def test_width_difference(self):
        a = ConfidenceInterval(0.88, 0.92, 0.05, "parametric_t")
        b = ConfidenceInterval(0.87, 0.93, 0.05, "parametric_t")
        diff = compare_cis(a, b)
        assert diff.width_diff == pytest.approx(-0.02, abs=1e-12)

    def test_bootstrap_vs_parametric_width(self):
        values = beta_sample(100, 8.0, 2.0, seed=42)
        boot = bootstrap_ci(values, alpha=0.05, n_resamples=10_000, seed=42)
        para = parametric_ci(float(values.mean()), float(values.std(ddof=1)), 100)
        assert abs(compare_cis(para, boot).width_diff) < 0.01

    def test_alpha_mismatch(self):
        a = parametric_ci(0.9, 0.1, 30, alpha=0.05)
        b = parametric_ci(0.9, 0.1, 30, alpha=0.10)
        with pytest.raises(ValueError):
            compare_cis(a, b)
