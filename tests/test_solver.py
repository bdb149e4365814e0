import functools
import logging
import os
import shutil
import subprocess
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypiss import certifier, core, lyapunov, reports, solver
from hypiss.models import Scenario
from hypiss.scenario import ScenarioSpec, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_coeffs(grid, lam=(1.0, -1.0), gamma=None, K=None, M=None, b=None):
    lam = np.asarray(lam, dtype=float)
    gamma = np.zeros((2, 2)) if gamma is None else np.asarray(gamma, dtype=float)
    return core.SystemCoefficients(
        k=2, m=1, lam=np.tile(lam, (grid.J + 2, 1)), pi=np.tile(gamma, (grid.J, 1, 1)),
        K=np.zeros((2, 2)) if K is None else K, M=np.zeros(2) if M is None else M,
        b=core.DisturbanceSignal.constant(np.zeros(2)) if b is None else b)


def scenario(grid, coeffs, initial, weights=None):
    """A scenario of the given system, with unit weights by default."""
    if weights is None:
        weights = core.WeightField(np.ones((grid.J + 2, coeffs.k)))
    return Scenario(name="test", grid=grid, coefficients=coeffs, weights=weights,
                    xi=1.0, initial=initial)


def march(grid, coeffs, initial):
    """Run with unit weights and every level recorded."""
    return solver.run(scenario(grid, coeffs, initial), stride=1)


def one_step_grid(J, cfl, lambda_max=1.0, l=1.0):
    """Grid whose final time is one nominal step, so N = 1."""
    dt = core.Grid1D(l=l, J=J, T=1.0, cfl=cfl, lambda_max=lambda_max).dt
    g = core.Grid1D(l=l, J=J, T=dt, cfl=cfl, lambda_max=lambda_max)
    assert g.N == 1
    return g


class TestTransport:
    def test_zero_state_stays_zero(self):
        g = one_step_grid(8, 1.0)
        c = make_coeffs(g)
        res = march(g, c, np.zeros((8, 2)))
        assert np.all(res.history[1][1] == 0.0)
        assert np.all(res.final == 0.0)

    def test_unit_courant_is_pure_shift(self):
        g = one_step_grid(8, 1.0)
        c = make_coeffs(g)
        rng = np.random.default_rng(5)
        init = rng.normal(size=(8, 2))
        out = march(g, c, init).history[1][1]
        # compatibility ghosts are zero without feedback
        assert np.allclose(out[:, 0], np.r_[0.0, init[:-1, 0]], rtol=0, atol=1e-15)
        assert np.allclose(out[:, 1], np.r_[init[1:, 1], 0.0], rtol=0, atol=1e-15)

    def test_constant_state_with_matching_ghosts_is_fixed_point(self):
        # hand evaluation: all upwind differences vanish for a constant state;
        # swapping feedback makes both ghosts equal to the constant
        g = one_step_grid(6, 0.7)
        c = make_coeffs(g, K=np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = march(g, c, np.full((6, 2), 0.37)).history[1][1]
        assert np.allclose(out, 0.37, rtol=0, atol=0)

    def test_variable_speed_stencil_matches_loop(self):
        # upwind-side speed sampling: lam_{j-1} for the positive block,
        # lam_{j+1} for the negative one
        J = 11
        rng = np.random.default_rng(41)
        g = one_step_grid(J, 0.75, lambda_max=4.0)
        lam = np.column_stack([rng.uniform(0.5, 3.0, J + 2),
                               -rng.uniform(0.5, 3.0, J + 2)])
        K = np.array([[0.0, rng.uniform(-1, 1)], [rng.uniform(-1, 1), 0.0]])
        c = core.SystemCoefficients(k=2, m=1, lam=lam, pi=np.zeros((J, 2, 2)),
                                    K=K, M=np.zeros(2),
                                    b=core.DisturbanceSignal.constant(np.zeros(2)))
        vals = np.zeros((J + 2, 2))
        vals[1:-1] = rng.normal(size=(J, 2))
        vals[0, 0] = K[0, 1] * vals[1, 1]      # compatibility ghosts
        vals[-1, 1] = K[1, 0] * vals[-2, 0]
        out = march(g, c, vals[1:-1]).history[1][1]
        r = g.dt / g.dx
        for j in range(J):
            i = j + 1
            plus = vals[i, 0] - r * lam[i - 1, 0] * (vals[i, 0] - vals[i - 1, 0])
            minus = vals[i, 1] - r * lam[i + 1, 1] * (vals[i + 1, 1] - vals[i, 1])
            assert out[j, 0] == pytest.approx(plus, rel=1e-14)
            assert out[j, 1] == pytest.approx(minus, rel=1e-14)

    def test_runtime_cfl_check(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g, lam=(2.0, -1.0))  # faster than the grid allows
        with pytest.raises(ValueError, match="CFL"):
            march(g, c, np.zeros((8, 2)))


class TestSource:
    # Transport is the identity on these states, so one step isolates the
    # source update.
    def test_zero_source_is_identity(self):
        # constant (a, 2a) with feedback 1/2 and 2 makes both ghosts exact
        g = one_step_grid(4, 1.0)
        c = make_coeffs(g, K=np.array([[0.0, 0.5], [2.0, 0.0]]))
        a = np.random.default_rng(6).normal()
        init = np.tile([a, 2.0 * a], (4, 1))
        out = march(g, c, init).history[1][1]
        assert np.allclose(out, init, rtol=0, atol=0)

    def test_symmetric_source_hand_value(self):
        # (1,1) in both cells, matching ghosts, Pi = [[0.3,-0.1],[-0.1,0.3]],
        # dt = 0.1: Pi w = (0.2, 0.2), w - dt Pi w = (0.98, 0.98)
        g = core.Grid1D(l=2.0, J=2, T=0.1, cfl=0.1, lambda_max=1.0)
        assert g.dt == 0.1 and g.N == 1
        c = core.SystemCoefficients(
            k=2, m=1, lam=np.tile([1.0, -1.0], (4, 1)),
            pi=np.tile([[0.3, -0.1], [-0.1, 0.3]], (2, 1, 1)),
            K=np.array([[0.0, 1.0], [1.0, 0.0]]), M=np.zeros(2),
            b=core.DisturbanceSignal.constant(np.zeros(2)))
        out = march(g, c, [[1.0, 1.0], [1.0, 1.0]]).history[1][1]
        assert out == pytest.approx(np.full((2, 2), 0.98), rel=1e-15)

    def test_scalar_explicit_euler(self):
        # unit Courant shifts (2, 3, -1) to (0, 2, 3) exactly (zero ghost)
        g = one_step_grid(3, 1.0, l=0.75)
        assert g.dt == 0.25
        gamma = 0.7
        c = core.SystemCoefficients(
            k=1, m=1, lam=np.ones((5, 1)),
            pi=np.full((3, 1, 1), gamma),
            K=np.zeros((1, 1)), M=np.zeros(1), b=core.DisturbanceSignal.constant(np.zeros(1)))
        out = march(g, c, [[2.0], [3.0], [-1.0]]).history[1][1]
        assert np.allclose(out[:, 0], np.array([0.0, 2.0, 3.0]) * (1 - 0.25 * gamma),
                           rtol=1e-15)


class TestBoundary:
    def test_pure_injection(self):
        g = one_step_grid(4, 1.0)
        b = core.DisturbanceSignal.constant([0.3, -0.3])
        c = make_coeffs(g, M=np.array([1.0, 1.0]), b=b)
        s = march(g, c, np.zeros((4, 2))).final
        assert s[0, 0] == pytest.approx(0.3)
        assert s[-1, 1] == pytest.approx(-0.3)
        assert s[0, 1] == 0.0 and s[-1, 0] == 0.0

    def test_feedback_block_product(self):
        # unit Courant moves W-_1 to W-_0 and W+_{J-2} to W+_{J-1}; the new
        # ghosts read that trace
        g = one_step_grid(4, 1.0)
        K = np.array([[0.0, 0.5], [0.5, 0.0]])
        c = make_coeffs(g, K=K, M=np.array([1.0, 1.0]))
        interior = np.zeros((4, 2))
        interior[1, 1] = 0.5      # W-_0 after the step
        interior[-2, 0] = -0.5    # W+_{J-1} after the step
        s = march(g, c, interior).final
        assert s[0, 0] == pytest.approx(0.25)
        assert s[-1, 1] == pytest.approx(-0.25)

    def test_compatibility_ignores_disturbance(self):
        # at unit Courant the first step copies the initial ghosts into the
        # boundary cells, which shows they carry no disturbance term
        g = one_step_grid(4, 1.0)
        K = np.array([[0.0, 0.5], [0.5, 0.0]])
        b = core.DisturbanceSignal.constant([9.0, 9.0])
        c = make_coeffs(g, K=K, M=np.array([1.0, 1.0]), b=b)
        interior = np.zeros((4, 2))
        interior[0, 1] = 0.5
        interior[-1, 0] = -0.5
        out = march(g, c, interior).history[1][1]
        assert out[0, 0] == pytest.approx(0.25)
        assert out[-1, 1] == pytest.approx(-0.25)


class TestRun:
    def small_sim(self, J=24, T=1.0, cfl=0.75, lam=(1.0, -1.0), gamma=None,
                  K=None, M=None, b=None, initial=None):
        g = core.Grid1D(1.0, J, T, cfl, float(np.max(np.abs(lam))))
        c = make_coeffs(g, lam=lam, gamma=gamma, K=K, M=M, b=b)
        w = core.WeightField.implicit([1.0], [1.0], 0.5, g)
        if initial is None:
            initial = np.zeros((J, 2))
        return scenario(g, c, initial, w), g, c

    def test_zero_everything_stays_zero(self):
        sim, _, _ = self.small_sim()
        res = solver.run(sim)
        assert np.all(res.lyapunov == 0.0)
        assert np.all(res.final == 0.0)

    def test_linearity_without_disturbance(self):
        rng = np.random.default_rng(7)
        w0 = rng.normal(size=(24, 2))
        v0 = rng.normal(size=(24, 2))
        K = np.array([[0.0, 0.4], [0.3, 0.0]])
        gamma = np.array([[0.3, -0.1], [-0.1, 0.3]])
        alpha, beta = 1.7, -0.6
        runs = {}
        for name, init in (("w", w0), ("v", v0), ("mix", alpha * w0 + beta * v0)):
            sim, _, _ = self.small_sim(K=K, gamma=gamma, initial=init)
            runs[name] = solver.run(sim).final
        mix = alpha * runs["w"] + beta * runs["v"]
        scale = np.max(np.abs(mix)) or 1.0
        assert np.allclose(runs["mix"], mix, rtol=0, atol=1e-10 * scale)

    def test_sup_tracker_monotone_and_lagged(self):
        # the march records |b(t^n)|^2; the trace holds its lagged running sup
        from hypiss import certifier, lyapunov
        b = core.DisturbanceSignal.pulsed_sine(2, amplitude=0.5, cutoff=0.6)
        sim, _, _ = self.small_sim(M=np.array([1.0, 1.0]), b=b,
                                   initial=np.ones((24, 2)))
        res = solver.run(sim)
        assert res.b_sq == pytest.approx([float(np.sum(b(t) ** 2)) for t in res.times],
                                         rel=1e-15, abs=0)
        sup = lyapunov.build_trace(res, sim, certifier.certify(sim)).sup_b_sq
        assert np.all(np.diff(sup) >= 0)
        assert sup[0] == 0.0
        # entry n holds the sup over levels strictly before n
        expected = float(np.sum(b(0.0) ** 2))
        assert sup[1] == pytest.approx(expected, abs=1e-15)
        assert sup[-1] == pytest.approx(
            max(float(np.sum(b(t) ** 2)) for t in res.times[:-1]), rel=1e-12)

    def test_blowup_detection_reports_step(self):
        # strongly anti-dissipative source with a large dt grows past overflow
        gamma = np.array([[-1e4, 0.0], [0.0, -1e4]])
        sim, _, _ = self.small_sim(T=50.0, gamma=gamma, initial=np.ones((24, 2)))
        with pytest.raises(solver.BlowupError) as exc:
            solver.run(sim)
        # the first level whose L = dx sum p w^2 overflows, as a per-cell loop
        # march of this system finds; the state itself overflows at level 143
        assert exc.value.step == 67
        assert "non-finite L, state finite" in str(exc.value)

    def test_cfl_slack(self):
        # a Courant number above 1 by more than rounding is refused
        g = core.Grid1D(1.0, 8, 0.5, 1.0, 1.0)
        assert g.dt / g.dx == 1.0
        for over in (1e-6, 2e-9):
            sim = scenario(g, make_coeffs(g, lam=(1.0 + over, -1.0)), np.zeros((8, 2)))
            with pytest.raises(ValueError, match="CFL violated"):
                solver.run(sim)
        for over in (1e-12, 5e-10):
            sim = scenario(g, make_coeffs(g, lam=(1.0, -1.0 - over)), np.zeros((8, 2)))
            assert solver.run(sim).steps == g.N

    def test_shapes_checked_against_grid_and_system(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g)
        unit = core.WeightField(np.ones((10, 2)))
        with pytest.raises(ValueError, match="initial data has shape"):
            scenario(g, c, np.zeros((8, 3)), unit)
        with pytest.raises(ValueError, match="interior weights have shape"):
            scenario(g, c, np.zeros((8, 2)), core.WeightField(np.ones((9, 2))))

    def test_history_stride(self):
        sim, g, _ = self.small_sim(initial=np.ones((24, 2)))
        res = solver.run(sim, stride=7)
        assert res.history is not None
        ns = [n for n, _ in res.history]
        assert ns[0] == 0 and ns[-1] == g.N
        assert all(n % 7 == 0 or n == g.N for n in ns)
        assert res.history[0][1].shape == (24, 2)

    def test_discrete_iss_bound_on_certified_scenario(self):
        # unweighted squared norm obeys the certified bound with
        # C1 = beta/zeta and C2 = nu/zeta
        from hypiss import certifier
        from hypiss.models import build_linear_benchmark
        sc = build_linear_benchmark(J=96, cfl=0.75, T=6.0, mu=0.575, xi=0.125,
                                    kappa12=0.5, kappa21=0.5,
                                    b=core.DisturbanceSignal.pulsed_sine(2, cutoff=3.0))
        rep = certifier.certify(sc)
        assert rep.overall
        g = sc.grid

        res = solver.run(scenario(g, sc.coefficients, sc.initial))
        sup_b_sq = np.concatenate([[0.0], np.maximum.accumulate(res.b_sq[:-1])])
        bound = (rep.C1_const * np.exp(-rep.eta * res.times) * res.lyapunov[0]
                 + (rep.C2_const / rep.eta) * (1 + 1 / sc.xi) * sup_b_sq)
        assert np.all(res.lyapunov <= bound + 1e-12 * max(1.0, res.lyapunov[0]))


class TestThreeComponents:
    """k = 3 march against a per-cell reference loop."""

    def reference(self, g, c, weights, init):
        k, m, J = c.k, c.m, g.J
        times = g.times()
        W = np.zeros((J + 2, k))
        W[1:-1] = init

        def ghosts(b_value):
            w_in = np.array([W[J, i] if i < m else W[1, i] for i in range(k)])
            ghost = c.K @ w_in + (0.0 if b_value is None else c.M * b_value)
            W[0, :m] = ghost[:m]
            W[J + 1, m:] = ghost[m:]

        def functional():
            return g.dx * sum(weights.values[j, i] * W[j, i] ** 2
                              for j in range(1, J + 1) for i in range(k))

        ghosts(None)
        L, snapshots = [functional()], [W[1:-1].copy()]
        for n in range(g.N):
            dt = g.dt if n < g.N - 1 else times[-1] - times[-2]
            r = dt / g.dx
            new = W.copy()
            for j in range(1, J + 1):
                tilde = np.empty(k)
                for i in range(k):
                    if i < m:
                        tilde[i] = W[j, i] - r * c.lam[j - 1, i] * (W[j, i] - W[j - 1, i])
                    else:
                        tilde[i] = W[j, i] - r * c.lam[j + 1, i] * (W[j + 1, i] - W[j, i])
                new[j] = tilde - dt * (c.pi[j - 1] @ tilde)
            W[:] = new
            ghosts(c.b(times[n + 1]))
            L.append(functional())
            snapshots.append(W[1:-1].copy())
        return np.array(L), snapshots, W

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_march_matches_per_cell_loop(self, seed):
        rng = np.random.default_rng(300 + seed)
        J, k, m = 9, 3, 2
        lam = np.column_stack([rng.uniform(0.5, 2.0, J + 2), rng.uniform(0.5, 2.0, J + 2),
                               -rng.uniform(0.5, 2.0, J + 2)])
        g = core.Grid1D(l=1.0, J=J, T=1.33, cfl=0.9, lambda_max=2.0)
        times = g.times()
        assert g.N == 27 and times[-1] - times[-2] < 0.7 * g.dt   # shortened final step
        K = np.zeros((k, k))
        K[:m, m:] = rng.uniform(-0.8, 0.8, (m, k - m))
        K[m:, :m] = rng.uniform(-0.8, 0.8, (k - m, m))
        b = core.DisturbanceSignal.tabulated([0.0, 0.4, 1.0, 1.3],
                                             rng.uniform(-0.5, 0.5, (4, k)))
        c = core.SystemCoefficients(k=k, m=m, lam=lam, pi=rng.normal(0.0, 0.5, (J, k, k)),
                                    K=K, M=rng.uniform(0.5, 1.5, k), b=b)
        weights = core.WeightField(rng.uniform(0.5, 2.0, (J + 2, k)))
        init = rng.normal(size=(J, k))
        res = solver.run(scenario(g, c, init, weights), stride=1)
        L, snapshots, W = self.reference(g, c, weights, init)
        assert np.allclose(res.lyapunov, L, rtol=1e-13, atol=0)
        scale = max(np.max(np.abs(s)) for s in snapshots)
        for (n, got), want in zip(res.history, snapshots):
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * scale), f"level {n}"
        assert np.allclose(res.final, W, rtol=1e-13, atol=1e-13 * scale)


def spy_strides(monkeypatch):
    """The coefficient column stride of every compiled march call, made
    through the real kernel."""
    lib, strides = solver._load(), []
    if lib is None:
        pytest.skip("the compiled step kernel could not be built")

    def hypiss_march(*args):
        strides.append(args[-1])
        return lib.hypiss_march(*args)
    monkeypatch.setattr(solver, "_load", lambda: SimpleNamespace(hypiss_march=hypiss_march))
    return strides


class TestConstantCoefficients:
    """Coefficients equal in every cell march from one column; a single
    differing cell, in the speeds or in Pi, keeps one column per cell."""

    J = 9

    def coefficients(self, rng, case):
        J = self.J
        lam = np.tile([1.7, -1.3], (J + 2, 1))
        pi = np.tile(rng.normal(0.0, 0.5, (2, 2)), (J, 1, 1))
        if case == "one ghost speed":
            lam[J + 1, 1] = -1.9          # the upwind speed of the last cell's negative row
        elif case == "last cell's source":
            pi[J - 1, 1, 0] += 0.25
        elif case == "variable source":
            pi = rng.normal(0.0, 0.5, (J, 2, 2))
        elif case == "variable speeds":
            lam = np.column_stack([rng.uniform(0.5, 2.0, J + 2), -rng.uniform(0.5, 2.0, J + 2)])
        b = core.DisturbanceSignal.tabulated([0.0, 0.4, 1.0, 1.3], rng.uniform(-0.5, 0.5, (4, 2)))
        return core.SystemCoefficients(
            k=2, m=1, lam=lam, pi=pi, K=np.array([[0.0, 0.6], [-0.7, 0.0]]),
            M=np.array([0.8, 1.2]), b=b)

    @pytest.mark.parametrize("case, stride", [
        ("constant", 0), ("one ghost speed", 1), ("last cell's source", 1),
        ("variable source", 1), ("variable speeds", 1)])
    def test_march_matches_full_columns_and_loop(self, march_backend, monkeypatch, case, stride):
        rng = np.random.default_rng(400)
        g = core.Grid1D(l=1.0, J=self.J, T=1.33, cfl=0.9, lambda_max=2.0)
        times = g.times()
        assert times[-1] - times[-2] < 0.7 * g.dt       # a shortened final step
        c = self.coefficients(rng, case)
        weights = core.WeightField(rng.uniform(0.5, 2.0, (self.J + 2, 2)))
        init = rng.normal(size=(self.J, 2))
        sc = scenario(g, c, init, weights)
        with monkeypatch.context() as mp:
            strides = spy_strides(mp) if march_backend == "c" else None
            got = solver.run(sc, stride=1)
        if strides is not None:
            assert strides and set(strides) == {stride}
        monkeypatch.setattr(solver, "_load", lambda: None)
        monkeypatch.setattr(solver, "same_in_every_cell", lambda *arrays: False)
        want = solver.run(sc, stride=1)     # the NumPy kernel on one column per cell
        assert np.array_equal(got.final, want.final)
        for (n, a), (_, b) in zip(got.history, want.history):
            assert np.array_equal(a, b), f"level {n}"
        assert np.array_equal(got.lyapunov, want.lyapunov)
        L, snapshots, W = TestThreeComponents().reference(g, c, weights, init)
        assert np.allclose(got.lyapunov, L, rtol=1e-13, atol=0)
        scale = max(np.max(np.abs(s)) for s in snapshots)
        assert np.allclose(got.final, W, rtol=1e-13, atol=1e-13 * scale)

    @pytest.mark.parametrize("name, stride", [
        ("linear_benchmark", 0), ("saint_venant", 0), ("isothermal_euler", 1)])
    def test_shipped_scenarios_stride(self, name, stride, monkeypatch):
        sc = load_scenario(str(SCENARIOS / f"{name}.json")).build(J=40)
        strides = spy_strides(monkeypatch)
        solver.run(sc)
        assert strides and set(strides) == {stride}

    def test_decided_once_per_run(self, monkeypatch):
        # a snapshot every step still takes two kernel calls, the nominal
        # steps and the last; the coefficients are scanned once, before the first
        sc = load_scenario(str(SCENARIOS / "linear_benchmark.json")).build(J=40)
        scans = []
        same = solver.same_in_every_cell
        monkeypatch.setattr(solver, "same_in_every_cell",
                            lambda *arrays: scans.append(1) or same(*arrays))
        strides = spy_strides(monkeypatch)
        res = solver.run(sc, stride=1)
        assert len(strides) == 2 and res.steps > 2
        assert set(strides) == {0} and len(scans) == 1

    def test_one_ulp_in_one_speed_sample(self, monkeypatch):
        # the certifier and the march ask the same bit-exact question: a
        # speed one ulp off at one sample loses the closed-form rate and
        # marches one column per cell
        sc = load_scenario(str(SCENARIOS / "linear_benchmark.json")).build(J=50)
        c1 = certifier.check_transport(sc.coefficients, sc.weights, sc.grid)
        assert c1.eta_closed_form is not None and c1.eta == c1.eta_closed_form
        lam = sc.coefficients.lam
        lam[20, 0] = np.nextafter(lam[20, 0], np.inf)
        c1 = certifier.check_transport(sc.coefficients, sc.weights, sc.grid)
        assert c1.passed and c1.eta_closed_form is None and c1.eta == c1.eta_ratio
        strides = spy_strides(monkeypatch)
        solver.run(sc)
        assert strides and set(strides) == {1}

    def test_bit_rules_pick_the_stride(self, monkeypatch):
        # -0.0 against 0.0 is a differing cell, so the march takes one column
        # per cell; a NaN with the same bits in every cell is one column
        assert not core.same_in_every_cell(np.array([0.0, 0.0, -0.0]))
        assert core.same_in_every_cell(np.full(3, np.nan), np.zeros((3, 2)))
        g = core.Grid1D(l=1.0, J=self.J, T=0.5, cfl=0.9, lambda_max=2.0)
        strides = spy_strides(monkeypatch)
        c = make_coeffs(g)
        c.pi[4, 0, 1] = -0.0
        solver.run(scenario(g, c, np.ones((self.J, 2))))
        assert strides and set(strides) == {1}
        strides.clear()
        c = make_coeffs(g, gamma=np.full((2, 2), np.nan))
        with pytest.raises(solver.BlowupError, match="n=1,"):
            solver.run(scenario(g, c, np.ones((self.J, 2))))
        assert strides == [0]


class TestSnapshots:
    """Both kernels copy each recorded level into one (levels, k, J) array
    as they march: a run is one kernel call for its nominal steps and one
    for its last, whatever the stride."""

    def scenario(self, J, steps, name="isothermal_euler"):
        """A shipped scenario at J cells, marched over ``steps`` nominal
        steps; a fractional count ends on a shortened step."""
        raw = load_scenario(str(SCENARIOS / f"{name}.json")).raw
        raw["grid"]["T"] = steps * ScenarioSpec(raw=raw).build(J=J).grid.dt
        sc = ScenarioSpec(raw=raw).build(J=J)
        assert sc.grid.N == np.ceil(steps)
        return sc

    @pytest.mark.parametrize("J, steps, stride", [
        (9, 1, 1), (9, 1, 3), (9, 0.5, 1), (9, 6, 1), (9, 6, 3), (9, 6, 4), (9, 6, 6),
        (9, 6, 7), (9, 20.5, 4), (9, 20.5, 7), (9, 20.5, 21), (9, 20.5, 50),
        (1000, 3.5, 2), (4101, 2.5, 1)])
    def test_levels_and_bits_each_kernel(self, monkeypatch, J, steps, stride):
        # Euler's coefficients differ per cell; every recorded level holds the
        # bits of that level of a run that records every level, under both kernels
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        sc = self.scenario(J, steps)
        N = sc.grid.N
        every = solver.run(sc, stride=1)
        runs = {"c": solver.run(sc, stride)}
        monkeypatch.setattr(solver, "_load", lambda: None)
        runs["numpy"] = solver.run(sc, stride)
        levels = sorted({*range(0, N + 1, stride), N})
        assert every.levels.tolist() == list(range(N + 1))
        for backend, res in runs.items():
            assert res.backend == backend and res.levels.tolist() == levels
            assert res.snapshots.shape == (len(levels), 2, J) and res.snapshots.flags.c_contiguous
            assert [n for n, _ in res.history] == levels
            for n, interior in res.history:
                assert interior.shape == (J, 2) and interior.flags.f_contiguous
                want = every.snapshots[n].view(np.uint64)
                assert np.array_equal(interior.T.view(np.uint64), want), f"{backend} level {n}"
            assert np.array_equal(res.snapshots[-1].T.view(np.uint64),
                                  res.final[1:-1].view(np.uint64))
            assert np.array_equal(res.lyapunov.view(np.uint64), every.lyapunov.view(np.uint64))

    @pytest.mark.parametrize("steps, calls", [(1, 1), (0.5, 1), (2, 2), (20.5, 2)])
    def test_at_most_two_kernel_calls(self, monkeypatch, steps, calls):
        sc = self.scenario(9, steps, "linear_benchmark")
        strides = spy_strides(monkeypatch)
        for stride in (None, 1, 2, 5, sc.grid.N, sc.grid.N + 1):
            strides.clear()
            res = solver.run(sc, stride)
            assert len(strides) == calls, f"stride {stride}"
            assert (res.snapshots is None) == (stride is None)

    @pytest.mark.parametrize("stride", [1, 10, 66, 67, 1000])
    def test_blowup_names_the_level_with_snapshots(self, march_backend, stride):
        # the level whose L first overflows, mid-way through the nominal call
        gamma = np.array([[-1e4, 0.0], [0.0, -1e4]])
        sim, g, _ = TestRun().small_sim(T=50.0, gamma=gamma, initial=np.ones((24, 2)))
        with pytest.raises(solver.BlowupError) as exc:
            solver.run(sim, stride)
        assert exc.value.step == 67 < g.N - 1

    def test_signed_zeros_same_bits_each_kernel(self, monkeypatch):
        # initial data, gains, M and tabulated b of 0.0 and -0.0: the ghosts'
        # sums start from 0.0 in both kernels, so every sign of zero agrees
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        rng = np.random.default_rng(3535)
        zeros = np.array([0.0, -0.0])
        g = core.Grid1D(l=1.0, J=6, T=1.0, cfl=0.9, lambda_max=1.0)
        for draw in range(40):
            K = rng.choice(zeros, (2, 2))
            b = core.DisturbanceSignal.tabulated([0.0, 0.5, 1.0], rng.choice(zeros, (3, 2)))
            c = make_coeffs(g, gamma=rng.choice(zeros, (2, 2)), K=K, M=rng.choice(zeros, 2), b=b)
            sc = scenario(g, c, rng.choice(zeros, (6, 2)))
            got = solver.run(sc, stride=1)
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_load", lambda: None)
                want = solver.run(sc, stride=1)
            assert (got.backend, want.backend) == ("c", "numpy")
            assert np.array_equal(got.snapshots.view(np.uint64), want.snapshots.view(np.uint64))
            assert np.array_equal(got.final.view(np.uint64), want.final.view(np.uint64)), draw


class TestBackends:
    """The compiled step kernel against the NumPy one it replaces."""

    @pytest.mark.parametrize("name", ["linear_benchmark", "saint_venant", "isothermal_euler"])
    def test_shipped_scenarios_agree(self, name, monkeypatch):
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        sc = load_scenario(str(SCENARIOS / f"{name}.json")).build(J=200)
        runs = {"c": solver.run(sc, stride=50)}
        monkeypatch.setattr(solver, "_load", lambda: None)
        runs["numpy"] = solver.run(sc, stride=50)
        for backend in runs:
            assert runs[backend].backend == backend
        c, ref = runs["c"], runs["numpy"]
        assert np.array_equal(c.final, ref.final)
        assert [n for n, _ in c.history] == [n for n, _ in ref.history]
        for (n, got), (_, want) in zip(c.history, ref.history):
            assert np.array_equal(got, want), f"level {n}"
        assert np.array_equal(c.b_sq, ref.b_sq)
        assert np.array_equal(c.lyapunov.view(np.uint64), ref.lyapunov.view(np.uint64))

    # J at the edges of the compiled march's chunks and of numpy's pairwise
    # leaves: one chunk up to 512 cells and a split above it; a row below 8
    # terms, one leaf per row up to 128 cells and a split above it; and the
    # flat sum of both rows, one leaf up to 64 cells
    @pytest.mark.parametrize("J", [2, 3, 7, 8, 9, 64, 65, 127, 128, 129, 130, 200, 203, 257,
                                   512, 513, 1024, 1025, 1031, 1601])
    @pytest.mark.parametrize("name", ["linear_benchmark", "saint_venant", "isothermal_euler"])
    def test_same_bits_at_chunk_and_leaf_edges(self, name, J, monkeypatch):
        # Euler's coefficients differ per cell (stride 1), the others' do not
        # (stride 0); 20.5 steps end on a shortened one, its own kernel call
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        raw = load_scenario(str(SCENARIOS / f"{name}.json")).raw
        raw["grid"]["T"] = 20.5 * ScenarioSpec(raw=raw).build(J=J).grid.dt
        sc = ScenarioSpec(raw=raw).build(J=J)
        c = solver.run(sc, stride=6)
        monkeypatch.setattr(solver, "_load", lambda: None)
        ref = solver.run(sc, stride=6)
        assert (c.backend, ref.backend, c.steps) == ("c", "numpy", 21)
        assert np.array_equal(c.lyapunov.view(np.uint64), ref.lyapunov.view(np.uint64))
        assert [n for n, _ in c.history] == [n for n, _ in ref.history]
        for (n, got), (_, want) in zip(c.history, ref.history):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"level {n}"
        assert np.array_equal(c.final.view(np.uint64), ref.final.view(np.uint64))

    @pytest.mark.parametrize("J", [8, 50, 64, 65, 72, 200, 203])
    def test_lyapunov_sums_row_by_row(self, march_backend, J):
        # L is each component row summed as numpy sums a row, then the row
        # sums added; for J a multiple of 8 above 64 that is numpy's flat sum
        raw = load_scenario(str(SCENARIOS / "linear_benchmark.json")).raw
        raw["grid"]["T"] = 5.5 * ScenarioSpec(raw=raw).build(J=J).grid.dt
        sc = ScenarioSpec(raw=raw).build(J=J)
        res = solver.run(sc, stride=1)
        assert res.backend == march_backend and res.steps == 6
        p = np.ascontiguousarray(sc.weights.interior().T)
        for n, snapshot in res.history:
            w = np.ascontiguousarray(snapshot.T)
            terms = (p * w) * w
            got = res.lyapunov[n:n + 1].view(np.uint64)
            rows = np.array([sc.grid.dx * float(terms.sum(axis=1).sum())])
            assert np.array_equal(got, rows.view(np.uint64)), f"level {n}"
            if J in (72, 200):
                flat = np.array([sc.grid.dx * float(terms.sum())])
                assert np.array_equal(got, flat.view(np.uint64)), f"level {n}"

    def test_three_components_each_backend(self, march_backend):
        # under "c" the k = 3 march is routed to NumPy; its result must not change
        for seed in range(3):
            TestThreeComponents().test_march_matches_per_cell_loop(seed)

    def test_blowup_each_backend(self, march_backend):
        TestRun().test_blowup_detection_reports_step()

    def benchmark(self):
        return load_scenario(str(SCENARIOS / "linear_benchmark.json")).build(J=40)

    def test_backend_follows_shape(self, monkeypatch):
        # only k = 2 with m = 1 loads the compiled kernel; k = 3 and k = 1
        # march in NumPy without building it
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_load", lambda: pytest.fail("the compiled kernel was loaded"))
            for k, m in ((3, 2), (1, 1)):
                g = one_step_grid(4, 1.0)
                lam = np.where(np.arange(k) < m, 1.0, -1.0)
                c = core.SystemCoefficients(
                    k=k, m=m, lam=np.tile(lam, (g.J + 2, 1)), pi=np.full((g.J, k, k), 0.1),
                    K=np.zeros((k, k)), M=np.zeros(k),
                    b=core.DisturbanceSignal.constant(np.zeros(k)))
                assert march(g, c, np.ones((g.J, k))).backend == "numpy"
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        assert solver.run(self.benchmark()).backend == "c"

    def test_missing_compiler_falls_back_to_numpy(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setattr(solver, "_CC", (str(tmp_path / "no-such-cc"), *solver._CC[1:]))
        monkeypatch.setattr(solver, "_load", functools.cache(solver._load.__wrapped__))
        sc = self.benchmark()
        with caplog.at_level(logging.INFO, logger="hypiss.solver"):
            got = solver.run(sc, stride=100)
        assert got.backend == "numpy"
        assert "march backend: numpy; the C kernel could not be built" in caplog.text
        monkeypatch.setattr(solver, "_load", lambda: None)
        want = solver.run(sc, stride=100)
        assert np.array_equal(got.final, want.final)
        assert np.array_equal(got.lyapunov, want.lyapunov)
        assert not (tmp_path / ".cache").exists()

    def test_one_load_per_process_and_one_switch(self, monkeypatch, tmp_path):
        # a failed load is not retried: two marches and a writer build once
        sc = self.benchmark()
        with monkeypatch.context() as mp:
            mp.setenv("HOME", str(tmp_path))
            mp.setattr(solver, "_CC", (str(tmp_path / "no-such-cc"), *solver._CC[1:]))
            mp.setattr(solver, "_load", functools.cache(solver._load.__wrapped__))
            builds, build = [], solver._build
            mp.setattr(solver, "_build", lambda: builds.append(1) or build())
            result = solver.run(sc, stride=100)
            solver.run(sc)
            reports.write_trace_csv(tmp_path / "trace.csv", lyapunov.build_trace(
                result, sc, certifier.certify(sc)))
        assert len(builds) == 1
        # replacing the loader switches both the march and the row formatter
        monkeypatch.setattr(solver, "_load", lambda: None)
        assert solver.run(sc).backend == "numpy"
        pieces = ([[np.zeros(1)]], b"", None, np.zeros((1, 4), dtype=int), np.zeros(1, dtype=int))
        assert reports._row_formatter(*pieces).__code__ is reports._python_rows(*pieces).__code__

    def test_build_is_cached_per_source_and_command(self, monkeypatch, tmp_path):
        if shutil.which(solver._CC[0]) is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("HOME", str(tmp_path))
        path = solver._build()
        assert path.parent == tmp_path / ".cache" / "hypiss"
        assert path.name.startswith("march-") and path.suffix == ".so"
        assert [p.name for p in path.parent.iterdir()] == [path.name]   # no leftovers

        def no_compiler(*args, **kwargs):
            raise AssertionError("compiled again")
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert solver._build() == path

    def test_new_build_removes_stale_builds(self, monkeypatch, tmp_path):
        if shutil.which(solver._CC[0]) is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = tmp_path / ".cache" / "hypiss"
        cache.mkdir(parents=True)
        stale, fresh = cache / f"march-{'0' * 64}.so", cache / f"march-{'1' * 64}.so"
        sixty_days_ago = time.time() - 60 * 86400

        def make_stale():
            stale.write_bytes(b"")
            os.utime(stale, (sixty_days_ago, sixty_days_ago))
        make_stale()
        fresh.write_bytes(b"")
        path = solver._build()
        assert sorted(cache.iterdir()) == sorted([fresh, path])
        make_stale()
        assert solver._build() == path          # a cache hit removes nothing
        assert sorted(cache.iterdir()) == sorted([stale, fresh, path])

    def test_unwritable_cache_builds_privately(self, monkeypatch, tmp_path, caplog):
        if shutil.which(solver._CC[0]) is None:
            pytest.skip("no C compiler")
        home = tmp_path / "home"
        home.write_text("")        # a file, so ~/.cache cannot be made
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(solver, "_load", functools.cache(solver._load.__wrapped__))
        with caplog.at_level(logging.INFO, logger="hypiss.solver"):
            assert solver.run(self.benchmark()).backend == "c"
        path = Path(caplog.text.split("march backend: c, ")[1].split()[0])
        assert path.is_file() and tmp_path not in path.parents
