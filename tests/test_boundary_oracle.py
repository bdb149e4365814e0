"""An oracle for the march's boundary path that shares no code with it.

At Courant number 1 with speeds +1 and -1, an upwind step moves every
component one cell along its characteristic: positive components to the
right, negative ones to the left.  The march then reduces to index
shifting, with the ghost cells fed by the boundary law

    g^{n+1} = K w_in^{n+1} + M b(t^{n+1}),    g^0 = K w_in^0,

where ``w_in = (W+_{J-1}, W-_0)`` is the trace at the end each component
leaves by, taken after the step, and ``g = (W+_{-1}, W-_J)``.  A constant
diagonal source ``diag(sigma)`` also scales component i by
``1 - dt sigma_i`` at each step.  :func:`ghosts` solves that recursion J
levels at a time, since ``w_in^n`` reads ``g^{n-J}`` at the latest, and
:func:`shifted` reads any cell at any level off the ghosts and the
initial data.  T is a multiple of ``dx``, so every step has ``dt = dx``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypiss import solver
from hypiss.core import DisturbanceSignal, Grid1D, SystemCoefficients, WeightField
from hypiss.models import Scenario


def shifted(W0, g, a, m, n, j, i):
    """W_j^n in component i (broadcast integer arrays) by index shifting:
    a positive component at cell j left the ghost cell j + 1 steps before,
    a negative one J - j steps before; a value that has not yet come from
    a ghost is initial data moved n cells.  ``a[i]`` is the factor per step."""
    J = W0.shape[0]
    pos = i < m
    steps = np.where(pos, j + 1, J - j)
    ghost_level = n - steps
    start = np.where(pos, j - n, j + n)
    return np.where(ghost_level >= 0,
                    a[i] ** steps * g[np.maximum(ghost_level, 0), i],
                    a[i] ** n * W0[np.clip(start, 0, J - 1), i])


def ghosts(W0, K, M, b, a, m):
    """Ghost values g^0 .. g^N, shape (N + 1, k), from samples b^0 .. b^N."""
    J, k = W0.shape
    g = np.zeros((len(b), k))
    i = np.arange(k)
    cell_in = np.where(i < m, J - 1, 0)
    for first in range(0, len(b), J):
        n = np.arange(first, min(first + J, len(b)))
        w_in = shifted(W0, g, a, m, n[:, None], cell_in, i)
        g[n] = w_in @ K.T + (n > 0)[:, None] * (M * b[n])
    return g


def check_against_oracle(J, N, m, K, M, b, W0, sigma):
    """March N steps with stride J and compare every snapshot, which
    together hold every ghost value up to g^{N-1}, and the final state,
    ghosts included, with the oracle's."""
    k = len(M)
    grid = Grid1D(l=1.0, J=J, T=N * (1.0 / J), cfl=1.0, lambda_max=1.0)
    assert grid.N == N and grid.dt == grid.dx
    lam = np.where(np.arange(k) < m, 1.0, -1.0)
    coeffs = SystemCoefficients(k=k, m=m, lam=np.tile(lam, (J + 2, 1)),
                                pi=np.tile(np.diag(sigma), (J, 1, 1)), K=K, M=M, b=b)
    sc = Scenario(name="oracle", grid=grid, coefficients=coeffs,
                  weights=WeightField(np.ones((J + 2, k))), xi=1.0, initial=W0)
    res = solver.run(sc, stride=J)
    a = 1.0 - grid.dt * np.asarray(sigma)
    g = ghosts(W0, K, M, b(grid.times()), a, m)
    atol = 1e-11 * max(1.0, np.max(np.abs(g)), np.max(np.abs(W0)))
    j, i = np.arange(J)[:, None], np.arange(k)
    assert [n for n, _ in res.history] == [*range(0, N, J), N]
    for n, interior in res.history:
        np.testing.assert_allclose(interior, shifted(W0, g, a, m, n, j, i), rtol=0, atol=atol,
                                   err_msg=f"level {n}")
    np.testing.assert_allclose(res.final[0, :m], g[N, :m], rtol=0, atol=atol)
    np.testing.assert_allclose(res.final[J + 1, m:], g[N, m:], rtol=0, atol=atol)
    return res


@pytest.mark.parametrize("sigma", [(0.0, 0.0), (0.3, 1.1)], ids=["no source", "source"])
@pytest.mark.parametrize("J", [50, 200, 1600])
def test_ghosts_by_index_shifting(march_backend, J, sigma):
    rng = np.random.default_rng(J)
    N = 2 * J + 17
    K = np.array([[0.0, 0.8], [-0.6, 0.0]])
    # a tabulated disturbance that is nonzero at t = 0 and changes every level
    times = np.linspace(0.0, N / J, 7)
    b = DisturbanceSignal.tabulated(times, rng.uniform(-1.0, 1.0, (7, 2)))
    res = check_against_oracle(J, N, 1, K, np.array([0.7, -1.3]), b,
                               rng.normal(size=(J, 2)), sigma)
    assert res.backend == march_backend


@st.composite
def systems(draw, k):
    """(J, N, m, K, M, b, W0, sigma) with the feedback K zero on its
    diagonal blocks, as the builders make it."""
    J = draw(st.sampled_from([50, 200]))
    N = J * draw(st.integers(1, 3)) + draw(st.integers(0, J - 1))
    m = draw(st.integers(1, k - 1))
    gain = st.floats(-0.9, 0.9)
    K = np.zeros((k, k))
    K[:m, m:] = draw(hnp.arrays(float, (m, k - m), elements=gain))
    K[m:, :m] = draw(hnp.arrays(float, (k - m, m), elements=gain))
    M = draw(hnp.arrays(float, k, elements=st.floats(-2.0, 2.0)))
    knots = draw(st.integers(2, 6))
    values = draw(hnp.arrays(float, (knots, k), elements=st.floats(-1.0, 1.0)))
    b = DisturbanceSignal.tabulated(np.linspace(0.0, N / J, knots), values)
    W0 = draw(hnp.arrays(float, (J, k), elements=st.floats(-1.0, 1.0)))
    sigma = draw(st.one_of(st.just((0.0,) * k),
                           st.tuples(*[st.floats(0.0, 2.0)] * k)))
    return J, N, m, K, M, b, W0, sigma


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(systems(2))
def test_drawn_2x2_systems(march_backend, system):
    assert check_against_oracle(*system).backend == march_backend


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 4]).flatmap(systems))
def test_drawn_systems_of_three_and_four_components(system):
    assert check_against_oracle(*system).backend == "numpy"
