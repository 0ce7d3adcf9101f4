import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segci import interpolated_quantile, summarize


def test_worked_example():
    s = summarize([2, 4, 4, 4, 5, 5, 7, 9])
    assert s.mean == pytest.approx(5.0, abs=1e-12)
    # sum of squared deviations is 32, so sd = sqrt(32 / 7)
    assert s.sd == pytest.approx(2.138090, abs=1e-6)


def test_even_length_median():
    assert summarize([1, 2, 3, 4]).median == pytest.approx(2.5, abs=1e-12)


def test_constant_sample():
    s = summarize([0.8, 0.8, 0.8])
    assert s.mean == 0.8
    assert s.sd == 0.0
    assert s.min == s.q1 == s.median == s.q3 == s.max == 0.8


def test_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_single_value_sd_undefined():
    s = summarize([0.4])
    assert s.n == 1
    assert s.sd is None
    assert s.median == 0.4


def test_five_number_ordering_and_iqr():
    s = summarize([9.0, -3.0, 2.5, 2.5, 7.0, 0.0])
    assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
    assert s.iqr >= 0.0


def test_quantile_position_convention():
    # position (n - 1) * p with linear interpolation: for 5 sorted values
    # the 0.25 quantile sits exactly on index 1.
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert interpolated_quantile(values, 0.25) == 20.0
    assert interpolated_quantile(values, 0.1) == pytest.approx(14.0, abs=1e-12)
    assert interpolated_quantile(values, 0.0) == 10.0
    assert interpolated_quantile(values, 1.0) == 50.0


def test_quantile_domain():
    with pytest.raises(ValueError):
        interpolated_quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        interpolated_quantile([], 0.5)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
    st.randoms(use_true_random=False),
)
def test_permutation_invariance(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    assert summarize(shuffled) == summarize(values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60))
def test_sd_matches_brute_force(values):
    s = summarize(values)
    mean = sum(values) / len(values)
    brute = sum((v - mean) ** 2 for v in values)
    assert s.sd is not None
    assert math.isclose(s.sd**2 * (len(values) - 1), brute, rel_tol=1e-12, abs_tol=1e-12)


def test_matches_numpy_linear_quantiles():
    rng = np.random.default_rng(3)
    values = rng.random(37)
    for p in (0.25, 0.5, 0.75):
        assert interpolated_quantile(values, p) == pytest.approx(
            float(np.quantile(values, p)), abs=1e-12
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_summarize_refuses_non_finite(bad, position):
    values = [0.1, 0.2, 0.3, 0.4]
    values.insert(position, bad)
    with pytest.raises(ValueError, match="non-finite"):
        summarize(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_quantile_refuses_non_finite(bad, position):
    # numpy sorted NaN last and returned it as a plausible quantile
    values = [0.1, 0.2, 0.3, 0.4]
    values.insert(position, bad)
    with pytest.raises(ValueError, match="non-finite"):
        interpolated_quantile(values, 0.25)
    with pytest.raises(ValueError, match="non-finite"):
        interpolated_quantile(np.array(values), 0.5)


def test_quantile_accepts_finite_values_whose_sum_overflows():
    assert interpolated_quantile([1e308, -1.0, 1e308], 0.5) == 1e308
    with pytest.raises(ValueError, match="non-finite"):
        interpolated_quantile([1e308, math.nan, 1e308], 0.5)


@pytest.mark.parametrize("sample", [
    [0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, 0.0, 0.5], [-0.0, -0.0, 0.0, 0.0, 1.0, -1.0],
])
def test_signed_zeros_independent_of_order(sample):
    # equal keys keep their input order in a stable sort; -0.0 must still come first
    def fields(values):
        s = summarize(values)
        quantiles = [interpolated_quantile(values, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        return [v.hex() if isinstance(v, float) else v for v in (*s._asdict().values(), *quantiles)]

    want = fields(sample)
    for perm in itertools.permutations(sample):
        assert fields(list(perm)) == want
    if min(sample) == max(sample):
        # a constant sample's mean is the sum's: -0.0 only when every value is
        assert summarize(sample).mean.hex() == math.fsum(sample).hex()


@pytest.mark.parametrize("values", [
    [1e300, -1e300, 3.0], [1.7e308, 1.7e308, 0.0], [1e306, 2e306, 0.5, 7e305], [2.0**480, 0.0],
])
def test_mean_and_sd_do_not_overflow(values):
    # the sum or the squares leave the float range; the statistics do not
    s = summarize(values)
    exact = sum(map(Fraction, values)) / len(values)
    assert s.mean == float(exact)
    var = sum((Fraction(v) - exact) ** 2 for v in values) / (len(values) - 1)
    assert s.sd == pytest.approx(math.sqrt(float(var / 4**600)) * 2.0**600, rel=1e-15)


def exact_mean_sd(values):
    """The exact mean, and the n-1 SD to within an ulp, as Fractions."""
    mean = sum(map(Fraction, values)) / len(values)
    var = sum((Fraction(v) - mean) ** 2 for v in values) / (len(values) - 1)
    k = (var.denominator.bit_length() - var.numerator.bit_length()) // 2  # var * 4**k near 1
    return mean, Fraction(math.sqrt(var * Fraction(4) ** k)) / Fraction(2) ** k


def assert_close(got, exact, floor=2.0**-1074):
    # 1e-15 relative; an exact value below the normal range has no float
    # closer than one step of the subnormal grid
    assert abs(Fraction(got) - exact) <= max(Fraction(1e-15) * abs(exact), Fraction(floor))


magnitudes = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1000))
mantissas = st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=12)
extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 1.0, 1.7e308, -1.7e308]


def ulps_above(v, steps):
    # v and values a few floats above it: a spread of a few ulps of the mean
    out = []
    for k in steps:
        x = v
        for _ in range(k):
            x = math.nextafter(x, math.inf)
        out.append(x)
    return out


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(lambda b, ms: [m * b for m in ms], magnitudes, mantissas),
    st.builds(lambda v, n: [v] * n, st.floats(allow_nan=False, allow_infinity=False),
              st.integers(1, 5)),
    st.lists(st.sampled_from(extremes), min_size=1, max_size=6),
    st.builds(ulps_above, st.floats(-1e300, 1e300),
              st.lists(st.integers(0, 3), min_size=2, max_size=8)),
))
@example([1e-158, 2e-158, 4e-158])
@example([1e-170, 2e-170, 4e-170])
@example([1e-200, 2e-200])
@example([5e-324, 1e-323, 2e-323])
@example([1.7e308, 1.6e308, 0.0])
@example([1.0, 1.0000000000000002])
@example([0.9, 0.9000000000000001, 0.9000000000000001])
@example([2.2250738585072014e-308, 1.7e308, -1.7e308])
@example(ulps_above(3.1296366167351746e-139, [0, 0, 1]))
@example([2.0**-1022, 1.7e308, 1.7e308, -1.7e308, -1.7e308])
def test_mean_and_sd_exact_at_every_magnitude(values):
    if min(values) == max(values):
        # constant: the value itself, -0.0 only when every value is, and SD 0
        s = summarize(values)
        negative = all(math.copysign(1.0, v) < 0.0 for v in values)
        assert s.mean == values[0] and (math.copysign(1.0, s.mean) < 0.0) == negative
        assert s.sd == (0.0 if len(values) > 1 else None)
        return
    mean, sd = exact_mean_sd(values)
    if sd > Fraction(1.7976931348623157e308):
        with pytest.raises(OverflowError):
            summarize(values)
        return
    s = summarize(values)
    assert_close(s.mean, mean)
    assert_close(s.sd, sd)


def test_quantile_between_opposite_extremes():
    # the gap between the order statistics overflows; the quantile does not
    assert interpolated_quantile([-1.7e308, 1.7e308], 0.5) == 0.0
    assert interpolated_quantile([-1.7e308, 1.7e308], 0.25) == pytest.approx(-0.85e308, rel=1e-15)
    assert interpolated_quantile([-1.7e308, 0.0, 1.7e308], 0.75) == 0.85e308
