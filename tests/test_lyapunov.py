import dataclasses
import math

import numpy as np
import pytest

from hypiss import certifier, core, lyapunov, solver
from hypiss.models import build_linear_benchmark
from hypiss.reports import REFERENCE_GAP_NORMS
from tests.conftest import BENCHMARK_J, evaluate, gronwall_closed_form, run_scenario


class TestEvaluate:
    def test_zero_state(self):
        g = core.Grid1D(1.0, 4, 1.0, 1.0, 1.0)
        w = core.WeightField.implicit([1.0], [1.0], 0.5, g)
        assert evaluate(np.zeros((4, 2)), w, g) == 0.0

    def test_single_cell_arithmetic(self):
        # two unit cells, the second one empty
        g = core.Grid1D(l=2.0, J=2, T=1.0, cfl=1.0, lambda_max=1.0)
        w = core.WeightField([[1.0, 1.0], [2.0, 3.0], [7.0, 7.0], [1.0, 1.0]])
        assert evaluate(np.array([[1.0, 1.0], [0.0, 0.0]]), w, g) == pytest.approx(5.0)

    def test_benchmark_initial_value_against_quadrature(self):
        # constant data (-0.5, 0.5): L0 = dx sum 0.25 (e^{-mu x_j} + e^{mu x_j}),
        # a midpoint sum of the closed-form integral 0.5 sinh(mu)/mu
        mu, J = 0.575, 1600
        g = core.Grid1D(1.0, J, 10.0, 0.75, 1.0)
        w = core.WeightField.implicit([1.0], [1.0], mu, g)
        state = np.tile([-0.5, 0.5], (J, 1))
        L0 = evaluate(state, w, g)
        midpoint = sum(0.25 * (math.exp(-mu * x) + math.exp(mu * x))
                       for x in g.centers[1:-1]) * g.dx
        assert L0 == pytest.approx(midpoint, rel=1e-13)
        assert L0 == pytest.approx(0.5 * math.sinh(mu) / mu, rel=1e-6)
        assert L0 == pytest.approx(0.528, abs=5e-4)
        # the march records the same functional at t = 0; a short T is enough
        sc = build_linear_benchmark(J=J, cfl=0.75, T=0.01, mu=mu, xi=0.125,
                                    kappa12=0.5, kappa21=0.5)
        assert sc.grid.dx == g.dx and np.array_equal(sc.initial, state)
        assert solver.run(sc).lyapunov[0] == pytest.approx(midpoint, rel=1e-13)

    def test_quadratic_scaling(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        w = core.WeightField.implicit([1.0], [2.0], 0.3, g)
        rng = np.random.default_rng(11)
        state = rng.normal(size=(8, 2))
        base = evaluate(state, w, g)
        assert evaluate(3.0 * state, w, g) == pytest.approx(9.0 * base, rel=1e-13)


class TestGronwall:
    def test_single_substitution(self):
        # c=1, a=1, z=0, dt=0.5 -> bound at the first level is 0.5
        assert gronwall_closed_form(1.0, 1.0, 0.0, 0.5, 0) == pytest.approx(0.5)

    def test_fixed_point(self):
        for n in range(0, 40, 7):
            assert gronwall_closed_form(1.0, 1.0, 1.0, 0.01, n) == pytest.approx(1.0)

    def test_rejects_inapplicable_steps(self):
        with pytest.raises(ValueError):
            gronwall_closed_form(1.0, 2.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            gronwall_closed_form(1.0, -1.0, 0.0, 0.1, 3)


class TestEnvelope:
    def benchmark(self):
        return build_linear_benchmark(J=16, cfl=0.8, T=2.0, mu=0.5, xi=0.125,
                                      kappa12=0.5, kappa21=0.5)

    def test_starts_at_initial_value(self):
        report, trace = run_scenario(self.benchmark())
        assert report.overall
        assert trace.envelope[0] == trace.L[0]

    def test_rejects_large_eta_dt(self):
        sc = self.benchmark()
        report = dataclasses.replace(certifier.certify(sc), eta=1.0 / sc.grid.dt)
        with pytest.raises(ValueError, match="inapplicable"):
            lyapunov.build_trace(solver.run(sc), sc, report)

    def test_gap_norms_vanish_when_equal(self):
        g = core.Grid1D(1.0, 16, 2.0, 0.8, 1.0)
        times = g.times()
        L = np.exp(-0.3 * times)
        trace = lyapunov.LyapunovTrace(times=times, L=L, envelope=L.copy(),
                                       sup_b_sq=np.zeros_like(L), l2_weight=g.dt / g.cfl)
        assert lyapunov.envelope_gap_norms(trace) == (0.0, 0.0)

    def test_unit_courant_rows_match_a_march_at_courant_0_9(self, benchmark_traces):
        # The cfl-1.0 reference rows are reproduced at Courant 0.9 with the
        # O(dx) offset of the cfl-0.75 rows against their own references
        # (+0.167 / +0.400 % at J = 200, halving per doubling), while a
        # march at unit Courant misses their l2 gaps by more than 5 %.
        def deviations(trace, cfl_ref, J):
            got = lyapunov.envelope_gap_norms(trace)
            return [100 * (g - r) / r for g, r in zip(got, REFERENCE_GAP_NORMS[(cfl_ref, J)])]

        for J in BENCHMARK_J:
            _, at_09 = run_scenario(build_linear_benchmark(J=J, cfl=0.9))
            offset = deviations(benchmark_traces[(0.75, J)][1], 0.75, J)
            assert deviations(at_09, 1.0, J) == pytest.approx(offset, abs=0.01), J
            assert deviations(benchmark_traces[(1.0, J)][1], 1.0, J)[1] < -5.0, J


class TestFitDecayRate:
    def make_trace(self, times, L):
        return lyapunov.LyapunovTrace(times=times, L=L, envelope=None,
                                      sup_b_sq=np.zeros_like(times), l2_weight=times[1] - times[0])

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
        sc = build_linear_benchmark(J=128, cfl=0.75, T=6.0, mu=0.575, xi=0.125,
                                    kappa12=0.5, kappa21=0.5,
                                    b=core.DisturbanceSignal.pulsed_sine(2, amplitude=0.0))
        report = certifier.certify(sc)
        assert report.overall
        trace = lyapunov.build_trace(solver.run(sc), sc, report)
        measured = lyapunov.fit_decay_rate(trace, t_start=1.0)
        assert measured >= report.eta - 1e-9
