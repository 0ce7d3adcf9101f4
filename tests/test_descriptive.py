import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
