"""
How well do predicted CI widths track observed ones?
=====================================================

External validation of the SD approximation: for results where the true
per-case spread IS known, compare the CI width implied by the observed
SD against the width implied by the model SD. Here observed SDs are
estimated from simulated per-case scores centered on the model curve,
so the differences reflect estimation noise alone.
"""

import random
import tempfile
from pathlib import Path

from segci import calibrate, paper_model, predict_sd_pct, summarize, write_calibration_csv

model = paper_model()

rng = random.Random(31415)
results = []
for i in range(60):
    mean = 0.60 + 0.006 * i
    n = (8, 15, 30, 80, 200, 600)[i % 6]
    true_sd = predict_sd_pct(model, mean * 100.0) / 100.0
    cases = [rng.gauss(mean, true_sd) for _ in range(n)]
    observed_sd = summarize(cases).sd
    results.append((f"task{i % 12:02d}", f"method{i // 12:02d}", n, mean, observed_sd))

records, summary = calibrate(results, model, alpha=0.05, min_n=20)
print(f"records: {summary.n_records}, after n > {summary.min_n_filter} filter: "
      f"{summary.n_after_filter}")
print(f"median width difference (observed - predicted): {summary.median_width_diff:+.6f}")
print(f"IQR: ({summary.iqr_width_diff[0]:+.6f}, {summary.iqr_width_diff[1]:+.6f})")
print(f"median |difference|: {summary.median_abs_width_diff:.6f}")

# Differences shrink with the test-set size.
print(f"\n{'n':>5} {'median |obs - pred| width':>26}")
for n in (8, 30, 200):
    diffs = sorted(abs(r.width_diff) for r in records if r.n == n)
    print(f"{n:>5} {diffs[len(diffs) // 2]:>26.6f}")

# Scatter points for a calibration plot (predicted on x, observed on y,
# the identity line marking perfect calibration).
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "calibration_points.csv"
    write_calibration_csv(records, path)
    head = path.read_text().splitlines()
    print(f"\nwrote {len(head) - 1} points; first rows:")
    for line in head[:4]:
        print(" ", line)
