import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segci import (
    calibrate,
    interpolated_quantile,
    paper_model,
    parametric_ci,
    predict_sd_pct,
    t_quantile,
    write_calibration_csv,
)
from segci.rng import substream

MODEL = paper_model()


def perfect_results(ns=(25, 40, 100, 400)):
    # observed SD set to the model prediction itself
    out = []
    for i, n in enumerate(ns):
        mean = 0.75 + 0.05 * i
        sd = predict_sd_pct(MODEL, mean * 100.0) / 100.0
        out.append((f"task{i}", f"method{i}", n, mean, sd))
    return out


def test_perfect_model_zero_summary():
    records, summary = calibrate(perfect_results(), MODEL)
    assert summary.median_width_diff == 0.0
    assert summary.iqr_width_diff == (0.0, 0.0)
    assert summary.median_abs_width_diff == 0.0
    for r in records:
        assert r.width_diff == 0.0


def test_single_record_hand_values():
    records, summary = calibrate(
        [("liver", "unet", 100, 0.90, 0.10)], MODEL, min_n=20
    )
    (r,) = records
    assert r.width_diff == pytest.approx(0.007760, abs=1e-5)
    assert r.predicted_width == pytest.approx(0.031924, abs=1e-5)
    assert r.observed_width == pytest.approx(0.039684, abs=1e-5)
    assert summary.median_width_diff == pytest.approx(0.007760, abs=1e-5)


def test_min_n_filter_semantics():
    results = [
        ("a", "m", 10, 0.85, 0.09),
        ("b", "m", 50, 0.85, 0.09),
    ]
    _, summary = calibrate(results, MODEL, min_n=20)
    assert summary.n_records == 2
    assert summary.n_after_filter == 1
    # only the n = 50 record contributes, so the median equals its diff
    records, _ = calibrate(results, MODEL, min_n=20)
    assert summary.median_width_diff == records[1].width_diff


def test_boundary_n_excluded():
    # n equal to the threshold must not pass the strictly-greater filter
    results = [("a", "m", 20, 0.8, 0.1), ("b", "m", 21, 0.8, 0.1)]
    _, summary = calibrate(results, MODEL, min_n=20)
    assert summary.n_after_filter == 1


def test_summary_order_invariant():
    results = perfect_results() + [("x", "m", 60, 0.9, 0.2)]
    _, forward = calibrate(results, MODEL)
    _, backward = calibrate(list(reversed(results)), MODEL)
    assert forward == backward


def test_widths_recomputable():
    records, _ = calibrate([("a", "m", 64, 0.88, 0.07)], MODEL)
    (r,) = records
    t = t_quantile(0.975, r.n - 1)
    assert r.observed_width == pytest.approx(2.0 * t * r.observed_sd / math.sqrt(r.n), abs=1e-12)
    assert r.predicted_width == pytest.approx(2.0 * t * r.predicted_sd / math.sqrt(r.n), abs=1e-12)
    # and via the interval constructor, unclamped
    ci = parametric_ci(r.mean_dsc, r.observed_sd, r.n, clamp=False)
    assert ci.width == pytest.approx(r.observed_width, abs=1e-15)


def test_empty_input_raises():
    with pytest.raises(ValueError):
        calibrate([], MODEL)


def test_all_filtered_marks_summary_empty():
    _, summary = calibrate([("a", "m", 5, 0.8, 0.05)], MODEL, min_n=20)
    assert summary.empty
    assert summary.n_after_filter == 0
    assert summary.median_width_diff is None
    assert summary.iqr_width_diff is None


@st.composite
def filtered_results(draw):
    """(results, min_n): n at, just above and away from min_n, repeated rows, zero SDs."""
    min_n = draw(st.integers(2, 60))
    n = st.sampled_from([min_n, min_n + 1]) | st.integers(2, 300)
    sd = st.just(0.0) | st.floats(0.0, 0.5) | st.floats(0.0, 1e306)
    rows = draw(st.lists(st.tuples(n, st.floats(0.0, 1.0), sd), min_size=1, max_size=12))
    order = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=24))
    return [(f"t{i}", "m", *rows[i]) for i in order], min_n


@settings(max_examples=200, deadline=None)
@given(filtered_results())
def test_summary_matches_interpolated_quantiles(drawn):
    # the four statistics, bit for bit, against quantiles taken one at a time
    results, min_n = drawn
    records, summary = calibrate(results, MODEL, min_n=min_n)
    kept = [r.width_diff for r in records if r.n > min_n]
    assert summary[:3] == (len(records), len(kept), min_n)
    if not kept:
        assert summary[3:] == (None,) * 4
        return
    got = [summary.median_width_diff, *summary.iqr_width_diff,
           summary.median_abs_width_diff, *summary.iqr_abs_width_diff]
    want = [interpolated_quantile(sample, p)
            for sample in (kept, [abs(d) for d in kept]) for p in (0.5, 0.25, 0.75)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_csv_output(tmp_path):
    records, _ = calibrate([("liver", "unet", 100, 0.90, 0.10)], MODEL)
    path = tmp_path / "points.csv"
    write_calibration_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "predicted_width,observed_width,n"
    assert lines[1] == "0.031924,0.039684,100"


def test_csv_bytes_match_csv_writer(tmp_path):
    results = [(f"t{i}", "m", n, 0.6 + 0.005 * i, 0.002 * i) for i, n in enumerate(range(2, 400, 7))]
    records, _ = calibrate(results, MODEL, min_n=0)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["predicted_width", "observed_width", "n"])
    for r in records:
        writer.writerow([f"{r.predicted_width:.6f}", f"{r.observed_width:.6f}", r.n])
    path = tmp_path / "points.csv"
    write_calibration_csv(records, path)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_median_diff_shrinks_with_sample_size():
    # Observed SDs estimated from cases actually generated at the model
    # SD: estimation noise, and the width scale itself, drop with n.
    def median_abs_diff(n, seed_domain):
        results = []
        for i in range(40):
            mean = 0.80 + 0.003 * i
            true_sd = predict_sd_pct(MODEL, mean * 100.0) / 100.0
            rng = substream(99, seed_domain, i)
            cases = mean + true_sd * rng.standard_normal(n)
            results.append((f"t{i}", "m", n, mean, float(np.std(cases, ddof=1))))
        _, summary = calibrate(results, MODEL, min_n=0)
        return summary.median_abs_width_diff

    assert median_abs_diff(2500, 7) < median_abs_diff(25, 8)
