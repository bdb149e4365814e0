import math

import numpy as np
import pytest

from hypiss import core, lyapunov, solver
from hypiss.models import build_linear_benchmark


class TestEvaluate:
    def test_zero_state(self):
        g = core.Grid1D(1.0, 4, 1.0, 1.0, 1.0)
        w = core.WeightField.implicit([1.0], [1.0], 0.5, g)
        assert lyapunov.evaluate(np.zeros((4, 2)), w, g) == 0.0

    def test_single_cell_arithmetic(self):
        # two unit cells, the second one empty
        g = core.Grid1D(l=2.0, J=2, T=1.0, cfl=1.0, lambda_max=1.0)
        w = core.WeightField.from_samples([[1.0, 1.0], [2.0, 3.0], [7.0, 7.0], [1.0, 1.0]])
        assert lyapunov.evaluate(np.array([[1.0, 1.0], [0.0, 0.0]]), w, g) == pytest.approx(5.0)

    def test_benchmark_initial_value_against_quadrature(self):
        # constant data (-0.5, 0.5): L0 = dx sum 0.25 (e^{-mu x_j} + e^{mu x_j}),
        # a midpoint sum of the closed-form integral 0.5 sinh(mu)/mu
        mu, J = 0.575, 1600
        g = core.Grid1D(1.0, J, 10.0, 0.75, 1.0)
        w = core.WeightField.implicit([1.0], [1.0], mu, g)
        state = np.tile([-0.5, 0.5], (J, 1))
        L0 = lyapunov.evaluate(state, w, g)
        midpoint = sum(0.25 * (math.exp(-mu * x) + math.exp(mu * x))
                       for x in g.centers[1:-1]) * g.dx
        assert L0 == pytest.approx(midpoint, rel=1e-13)
        assert L0 == pytest.approx(0.5 * math.sinh(mu) / mu, rel=1e-6)
        assert L0 == pytest.approx(0.528, abs=5e-4)

    def test_quadratic_scaling(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        w = core.WeightField.implicit([1.0], [2.0], 0.3, g)
        rng = np.random.default_rng(11)
        state = rng.normal(size=(8, 2))
        base = lyapunov.evaluate(state, w, g)
        assert lyapunov.evaluate(3.0 * state, w, g) == pytest.approx(9.0 * base, rel=1e-13)


class TestGronwall:
    def test_single_substitution(self):
        # c=1, a=1, z=0, dt=0.5 -> bound at the first level is 0.5
        assert lyapunov.gronwall_closed_form(1.0, 1.0, 0.0, 0.5, 0) == pytest.approx(0.5)

    def test_fixed_point(self):
        for n in range(0, 40, 7):
            assert lyapunov.gronwall_closed_form(1.0, 1.0, 1.0, 0.01, n) == pytest.approx(1.0)

    def test_closed_form_equals_direct_recursion(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            a = float(np.exp(rng.uniform(-2, 2)))
            dt = rng.uniform(0.01, 0.99) / a
            z = rng.normal() * 2.0
            c = abs(rng.normal()) * 3.0
            n = int(rng.integers(0, 51))
            y = c
            for _ in range(n + 1):
                y = (1.0 - a * dt) * y + dt * z
            closed = lyapunov.gronwall_closed_form(c, a, z, dt, n)
            worst = max(worst, abs(closed - y) / max(abs(y), abs(closed), 1e-30))
        assert worst <= 1e-12

    def test_rejects_inapplicable_steps(self):
        with pytest.raises(ValueError):
            lyapunov.gronwall_closed_form(1.0, 2.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            lyapunov.gronwall_closed_form(1.0, -1.0, 0.0, 0.1, 3)


class TestEnvelope:
    def grid(self):
        return core.Grid1D(1.0, 16, 2.0, 0.8, 1.0)

    def test_starts_at_initial_value(self):
        g = self.grid()
        supb = np.zeros(g.N + 1)
        env = lyapunov.gronwall_envelope(2.5, 0.5, 1.0, 0.125, supb, g)
        assert env[0] == pytest.approx(2.5)

    def test_rejects_large_eta_dt(self):
        g = self.grid()
        with pytest.raises(ValueError, match="inapplicable"):
            lyapunov.gronwall_envelope(1.0, 1.0 / g.dt, 1.0, 0.125,
                                       np.zeros(g.N + 1), g)

    def test_gap_norms_vanish_when_equal(self):
        g = self.grid()
        times = g.times()
        L = np.exp(-0.3 * times)
        trace = lyapunov.LyapunovTrace(times=times, L=L, envelope=L.copy(),
                                       sup_b_sq=np.zeros_like(L), eta=0.3, nu=1.0,
                                       xi=0.125, l2_weight=g.dt / g.cfl)
        assert lyapunov.envelope_gap_norms(trace) == (0.0, 0.0)


class TestFitDecayRate:
    def make_trace(self, times, L):
        return lyapunov.LyapunovTrace(times=times, L=L, envelope=None,
                                      sup_b_sq=np.zeros_like(times), eta=None,
                                      nu=None, xi=0.125, l2_weight=times[1] - times[0])

    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 2001)
        trace = self.make_trace(t, np.exp(-0.575 * t))
        assert lyapunov.fit_decay_rate(trace, 0.0) == pytest.approx(0.575, abs=1e-6)

    def test_geometric_decay_matches_log_slope(self):
        eta, dt = 0.4, 0.01
        n = np.arange(3001)
        trace = self.make_trace(n * dt, 2.0 * (1 - eta * dt) ** n)
        expected = -math.log(1 - eta * dt) / dt
        assert lyapunov.fit_decay_rate(trace, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_window_validation(self):
        t = np.linspace(0.0, 1.0, 101)
        trace = self.make_trace(t, np.exp(-t))
        with pytest.raises(ValueError, match="10 samples"):
            lyapunov.fit_decay_rate(trace, 0.999)
        bad = self.make_trace(t, np.concatenate([np.ones(50), -np.ones(51)]))
        with pytest.raises(ValueError, match="nonpositive"):
            lyapunov.fit_decay_rate(bad, 0.0)

    def test_disturbance_free_benchmark_decays_at_least_at_certified_rate(self):
        from hypiss import certifier
        sc = build_linear_benchmark(J=128, cfl=0.75, T=6.0, mu=0.575, xi=0.125,
                                    kappa12=0.5, kappa21=0.5,
                                    b=core.DisturbanceSignal.pulsed_sine(2, amplitude=0.0))
        report = certifier.certify(sc)
        assert report.overall
        trace = lyapunov.build_trace(solver.run(sc), sc, report)
        measured = lyapunov.fit_decay_rate(trace, t_start=1.0)
        assert measured >= report.eta - 1e-9
