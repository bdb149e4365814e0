"""The eigenvalue sandwich for the weighted norm on randomized states; the
quadratic-form identities behind the decay estimates are acceptance
criterion 08."""

import numpy as np

from hypiss import core
from tests.conftest import evaluate


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
