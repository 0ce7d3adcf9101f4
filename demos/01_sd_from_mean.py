"""
Approximating the missing SD from a reported mean DSC
======================================================

Segmentation papers usually publish a mean Dice score and a test-set
size, but not the per-case spread. The bundled model fills that gap:
it maps a mean DSC (percent scale) to a plausible SD via a quadratic
on the log scale.
"""

from segci import paper_model, predict_sd_pct, sd_upper_bound_pct

model = paper_model()
print("model coefficients:", model.coefficients)

# Sweep the mean over its full range. The clamp keeps predictions below
# the largest SD a [0, 100]-bounded variable can have at that mean.
print(f"\n{'mean DSC (pp)':>14} {'model SD (pp)':>14} {'hard bound':>11} {'clamped?':>9}")
for x in range(0, 101, 5):
    raw = predict_sd_pct(model, x, clamp=False)
    clamped = predict_sd_pct(model, x)
    bound = sd_upper_bound_pct(x)
    flag = "yes" if clamped != raw else ""
    print(f"{x:>14.1f} {clamped:>14.4f} {bound:>11.4f} {flag:>9}")

# The curve peaks in the middle of the range and falls toward the
# extremes: nearly-perfect (or hopeless) segmentations vary less.
peak_x = max((0.125 * i for i in range(801)), key=lambda x: predict_sd_pct(model, x))
print(f"\nhighest predicted SD: {predict_sd_pct(model, peak_x):.4f} pp "
      f"at mean DSC {peak_x:.3f} pp")

# Fraction-scale convenience: a mean of 0.90 on [0, 1] is 90 pp.
print(f"SD at mean 0.90 (fraction scale): {predict_sd_pct(model, 90.0) / 100.0:.6f}")
