"""Quadratic-form identities underlying the decay estimates, checked on
randomized draws, plus the eigenvalue sandwich for the weighted norm."""

import numpy as np

from hypiss import core
from tests.conftest import evaluate


def test_quadratic_rearrangement_identity():
    # -2 y^T A (y - z) == -y^T A y + z^T A z - (y-z)^T A (y-z)
    # The rearrangement needs y^T A z == z^T A y, so it is an identity for
    # symmetric A only; the decay estimates apply it to diagonal matrices.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        y = rng.normal(size=k)
        z = rng.normal(size=k)
        raw = rng.normal(size=(k, k))
        A = 0.5 * (raw + raw.T)
        lhs = -2.0 * y @ A @ (y - z)
        rhs = -y @ A @ y + z @ A @ z - (y - z) @ A @ (y - z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


def test_weighted_young_inequality():
    # +/- 2 y^T B z <= xi y^T B y + (1/xi) z^T B z for PSD B
    rng = np.random.default_rng(2)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        y = rng.normal(size=k)
        z = rng.normal(size=k)
        F = rng.normal(size=(k, k))
        B = F.T @ F
        xi = float(np.exp(rng.uniform(-3, 3)))
        cross = 2.0 * y @ B @ z
        bound = xi * (y @ B @ y) + (z @ B @ z) / xi
        slack = 1e-12 * max(abs(cross), bound, 1.0)
        assert cross <= bound + slack
        assert -cross <= bound + slack


def test_weight_sandwich_on_random_states():
    rng = np.random.default_rng(3)
    grid = core.Grid1D(1.0, 32, 1.0, 0.8, 1.0)
    weights = core.WeightField.implicit([0.7], [1.3], 0.9, grid)
    zeta, beta = weights.eigen_bounds()
    for _ in range(200):
        w = rng.normal(size=(32, 2))
        L = evaluate(w, weights, grid)
        norm_sq = grid.dx * float(np.sum(w * w))
        assert zeta * norm_sq <= L + 1e-14
        assert L <= beta * norm_sq + 1e-14
