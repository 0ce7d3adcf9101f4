"""
Fitting the mean-to-SD model on your own challenge data
========================================================

Starting from a per-case results table (task, method, case, dsc), the
pipeline aggregates each (task, method) group into a (mean, SD) pair
and fits the Gamma/log-link quadratic by IRLS. Here the per-case data
is simulated so the whole loop runs self-contained.
"""

import math
import random
import tempfile
from pathlib import Path

from segci import (
    SimSpec,
    TrainingPair,
    fit_gamma_log_glm,
    generate_results,
    load_model,
    make_training_pairs,
    paper_model,
    save_model,
)

# Simulate a challenge: 10 tasks x 19 methods, 50 cases each. One group
# is excluded to mimic a missing submission.
spec = SimSpec(cases_per_task=50, seed=7, exclude=((9, 18),))
rows = generate_results(spec)
result = make_training_pairs(rows)
print(f"cases: {len(rows)}, groups: {result.n_groups}, pairs kept: {len(result.pairs)}")

fit = fit_gamma_log_glm(result.pairs)
print(f"fitted coefficients: ({fit.coefficients[0]:.4f}, {fit.coefficients[1]:.4f}, "
      f"{fit.coefficients[2]:.6f})")
print(f"deviance {fit.deviance:.4f}, dispersion {fit.dispersion:.4f}, "
      f"iterations {fit.iterations}, converged {fit.converged}")

# A single Beta family clusters all means around 0.8, so the quadratic
# is weakly identified there. Training data whose group SDs actually
# follow the published curve recovers its coefficients closely:
reference = paper_model()
b0, b1, b2 = reference.coefficients
rng = random.Random(11)
pairs = []
for i in range(300):
    x = rng.uniform(30.0, 95.0)
    noise = math.exp(0.05 * rng.gauss(0.0, 1.0))
    pairs.append(TrainingPair(x, math.exp(b0 + b1 * x + b2 * x * x) * noise))
refit = fit_gamma_log_glm(pairs)
print("\nrefit on curve-shaped training pairs:")
print(f"  reference: {reference.coefficients}")
print(f"  refit:     ({refit.coefficients[0]:.4f}, {refit.coefficients[1]:.4f}, "
      f"{refit.coefficients[2]:.6f})")

# Models round-trip through a small JSON document.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(refit, path)
    print(f"\nsaved to {path.name}: {path.read_text().strip().splitlines()[1].strip()} ...")
    print(f"reloaded coefficients: {load_model(path).coefficients}")
