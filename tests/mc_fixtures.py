"""Shared seeded fixtures and independent oracles for the test suite.

Random streams here use domain tags 3, 4 and 5, disjoint from the tags
the package itself reserves. The Newton fit is an oracle implementation
kept deliberately independent of the package's IRLS path.
"""

from __future__ import annotations

import math

import numpy as np

from segci.rng import gamma_sampler, substream, word_streams

# Generating coefficients and noise shape of the Monte-Carlo fit fixture.
MC_TRUE = (2.0, 0.07, -0.0008)
MC_SHAPE = 20.0
MC_N_PAIRS = 500
MC_SEEDS = tuple(range(20))

_DOMAIN_MC_X = 3
_DOMAIN_MC_Y = 4
_DOMAIN_BETA_SAMPLE = 5


def mc_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One seeded (x, y) dataset: x uniform on [30, 95], y Gamma around the curve."""
    rng = substream(seed, _DOMAIN_MC_X)
    x = rng.uniform(30.0, 95.0, size=MC_N_PAIRS)
    b0, b1, b2 = MC_TRUE
    mu = np.exp(b0 + b1 * x + b2 * x * x)
    gamma, words = gamma_sampler(MC_SHAPE), word_streams(seed, _DOMAIN_MC_Y)
    y = np.array([gamma(words(i)) * mu[i] / MC_SHAPE for i in range(MC_N_PAIRS)])
    return x, y


def newton_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximize the Gamma/log-link likelihood by Newton steps on the score.

    Independent of the package's IRLS implementation; used to
    cross-check fitted coefficients.
    """
    design = np.column_stack([np.ones_like(x), x, x * x])
    beta = np.array([math.log(float(np.mean(y))), 0.0, 0.0])
    for _ in range(200):
        mu = np.exp(design @ beta)
        ratio = y / mu
        gradient = design.T @ (ratio - 1.0)
        hessian = -(design * ratio[:, None]).T @ design
        step = np.linalg.solve(hessian, gradient)
        beta = beta - step
        if float(np.max(np.abs(step))) < 1e-13:
            break
    return beta


def beta_sample(n: int, a: float, b: float, seed: int) -> np.ndarray:
    """n Beta(a, b) draws, one counter-derived stream per index."""
    from segci import sample_beta

    return np.array(
        [sample_beta(a, b, substream(seed, _DOMAIN_BETA_SAMPLE, i)) for i in range(n)]
    )
