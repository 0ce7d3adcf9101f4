"""
Reconstructing a 95% confidence interval from aggregate values
===============================================================

Given only (mean DSC, test size) as found in a results table, build the
t-based interval around the mean, using the model SD when the paper
reports none. With per-case values available, the percentile bootstrap
gives a non-parametric cross-check that lands very close.
"""

from segci import (
    BetaFamily,
    bootstrap_ci,
    compare_cis,
    paper_model,
    parametric_ci,
    reconstruct_ci,
)
from segci.rng import word_streams

model = paper_model()

# A typical table row: mean DSC 0.90 on a 100-case test set, no SD,
# so the interval uses the model's SD (its source is "model").
ci, sd, _ = reconstruct_ci(0.90, 100, None, model)
print(f"approximated SD: {sd:.6f}")
print(f"95% CI: [{ci.lower:.5f}, {ci.upper:.5f}]  width {ci.width:.5f}")

# Smaller test sets widen the interval fast.
for n in (10, 30, 100, 1000):
    w = parametric_ci(0.90, sd, n).width
    print(f"  n={n:>5}: width {w:.5f}")

# When a paper does report an SD, reconstruct_ci prefers it over the approximation.
ci_reported, _, _ = reconstruct_ci(0.90, 100, 0.06, model)
print(f"\nwith reported SD 0.06: [{ci_reported.lower:.5f}, {ci_reported.upper:.5f}]")

# With access to per-case scores, compare against the bootstrap.
draw, words = BetaFamily(8.0, 2.0).sampler(), word_streams(2024, 60)
cases = [draw(words(i)) for i in range(100)]
from segci import summarize

stats = summarize(cases)
para = parametric_ci(stats.mean, stats.sd, stats.n)
boot = bootstrap_ci(cases, n_resamples=10_000, seed=2024)
diff = compare_cis(para, boot)
print(f"\nper-case sample: mean {stats.mean:.4f}, sd {stats.sd:.4f}")
print(f"parametric: [{para.lower:.5f}, {para.upper:.5f}]")
print(f"bootstrap:  [{boot.lower:.5f}, {boot.upper:.5f}]")
print(f"endpoint gaps: {diff.lower_diff:+.5f} / {diff.upper_diff:+.5f}")
