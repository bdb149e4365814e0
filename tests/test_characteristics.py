"""The march against the exact solution of the PDE it discretises.

On (0, 1), w_t + diag(a(x), c) w_x + diag(s1, s2) w = 0 with the feedback
w1(0, t) = k12 w2(0, t) + M1 b1(t) and w2(1, t) = k21 w1(1, t) + M2 b2(t).
Each component is carried along its characteristic and decays there at its
own rate.  A characteristic that reaches back to a boundary takes the
feedback's value at its entry time, and that value reads the other
component at the same boundary, so the solution follows by recursion
through the two ends.  The solution is kept here, as an oracle for tests
only.

First-order upwind converges at order 1 on smooth data, approaching it from
below while the bumps are still under-resolved; by T = 2.5 each bump has
been reflected at least once, with the source, the feedback and the
disturbance all acting.
"""

import numpy as np
import pytest

from hypiss import core, solver
from hypiss.models import build_linear_benchmark

C, S1, S2, K12, K21, M1, M2, T = -0.6, 0.3, 0.2, 0.5, -0.7, 1.0, 0.8, 2.5
B = core.DisturbanceSignal.pulsed_sine(2, amplitude=0.5, cutoff=2.0)
LADDER = (200, 400, 800, 1600)


def bump(x, centre):
    # cos^4 of half-width 0.2, so both components vanish near the boundaries at t = 0
    return np.cos(0.5 * np.pi * np.clip((x - centre) / 0.2, -1.0, 1.0)) ** 4


class Exact:
    """w1 and w2 at (x, t); ``tau(x)`` is w1's travel time from x = 0 to x,
    and ``tau_inv`` its inverse."""

    def __init__(self, a, tau, tau_inv):
        self.a, self.tau, self.tau_inv = a, tau, tau_inv

    def w1(self, x, t):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        t0 = np.maximum(t - self.tau(x), 0.0)     # entry time at x = 0, or 0 from the bump
        out = bump(self.tau_inv(np.maximum(self.tau(x) - t, 0.0)), 0.3)
        late = t0 > 0.0
        if late.any():
            out[late] = K12 * self.w2(0.0, t0[late]) + M1 * B(t0[late])[:, 0]
        return out * np.exp(-S1 * (t - t0))

    def w2(self, x, t):
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        t0 = np.maximum(t - (1.0 - x) / -C, 0.0)  # entry time at x = 1
        out = bump(x - C * t, 0.7)
        late = t0 > 0.0
        if late.any():
            out[late] = K21 * self.w1(1.0, t0[late]) + M2 * B(t0[late])[:, 1]
        return out * np.exp(-S2 * (t - t0))


CONSTANT = Exact(lambda x: np.ones_like(x), lambda x: x, lambda s: s)
# a(x) = (1 + x)/2 carries x0 to (x0 + 1) e^{t/2} - 1
VARIABLE = Exact(lambda x: 0.5 + x / 2.0, lambda x: 2.0 * np.log1p(x), lambda s: np.expm1(s / 2.0))


def errors(exact, cfl):
    """The L2 state error and |L^N - L(T)| at T for each J of the ladder."""
    mu = 0.575
    fine = (np.arange(2 ** 15) + 0.5) / 2 ** 15     # midpoint rule for L(T)
    L_exact = np.mean(np.exp(-mu * fine) * exact.w1(fine, T) ** 2
                      + np.exp(mu * fine) * exact.w2(fine, T) ** 2)
    state, lyap = [], []
    for J in LADDER:
        x = (np.arange(-1, J + 1) + 0.5) / J
        scenario = build_linear_benchmark(
            J=J, cfl=cfl, T=T, mu=mu, kappa12=K12, kappa21=K21, m_diag=(M1, M2), b=B,
            speeds=np.stack([exact.a(x), np.full(J + 2, C)], axis=1),
            source=((S1, 0.0), (0.0, S2)),
            ic=lambda x: np.stack([bump(x, 0.3), bump(x, 0.7)], axis=1))
        result = solver.run(scenario)
        x = x[1:-1]
        gap = result.final[1:-1] - np.stack([exact.w1(x, T), exact.w2(x, T)], axis=1)
        state.append(np.sqrt(np.sum(gap * gap) / J))
        lyap.append(abs(result.lyapunov[-1] - L_exact))
    return np.array(state), np.array(lyap)


def check_convergence(exact, cfl):
    for errs in errors(exact, cfl):
        assert np.all(np.diff(errs) < 0.0), errs
        assert np.log2(errs[-2] / errs[-1]) >= 0.6, errs


@pytest.mark.parametrize("cfl", [0.75, 1.0])
def test_constant_speeds_converge_to_the_characteristics_solution(march_backend, cfl):
    check_convergence(CONSTANT, cfl)


def test_variable_speed_converges_to_the_characteristics_solution(march_backend):
    check_convergence(VARIABLE, 0.75)

