import numpy as np
import pytest

from hypiss import core, solver


def make_coeffs(grid, lam=(1.0, -1.0), gamma=None, K=None, M=None, b=None):
    lam = np.asarray(lam, dtype=float)
    gamma = np.zeros((2, 2)) if gamma is None else np.asarray(gamma, dtype=float)
    return core.sample_coefficients(lambda x: lam, lambda x: gamma, grid,
                                    K=K, M=M, b=b)


class TestTransport:
    def test_zero_state_stays_zero(self):
        g = core.build_grid(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g)
        s = solver.initial_state(np.zeros((8, 2)), c)
        out = solver.transport_step(s, c, g)
        assert np.all(out.values == 0.0)

    def test_unit_courant_is_pure_shift(self):
        g = core.build_grid(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g)
        rng = np.random.default_rng(5)
        s = solver.initial_state(rng.normal(size=(8, 2)), c)
        W = s.values.copy()
        out = solver.transport_step(s, c, g)
        assert np.allclose(out.values[1:-1, 0], W[0:-2, 0], rtol=0, atol=1e-15)
        assert np.allclose(out.values[1:-1, 1], W[2:, 1], rtol=0, atol=1e-15)

    def test_constant_state_with_matching_ghosts_is_fixed_point(self):
        # hand evaluation: all upwind differences vanish for a constant state
        g = core.build_grid(1.0, 6, 1.0, 0.7, 1.0)
        c = make_coeffs(g)
        vals = np.full((8, 2), 0.37)
        s = core.StateField(values=vals, m=1, n=0, t=0.0, ghost_level=0)
        out = solver.transport_step(s, c, g)
        assert np.allclose(out.values[1:-1], 0.37, rtol=0, atol=0)

    def test_variable_speed_stencil_matches_loop(self):
        # upwind-side speed sampling: lam_{j-1} for the positive block,
        # lam_{j+1} for the negative one
        J = 11
        rng = np.random.default_rng(41)
        g = core.build_grid(1.0, J, 1.0, 0.75, 4.0)
        lam = np.column_stack([rng.uniform(0.5, 3.0, J + 2),
                               -rng.uniform(0.5, 3.0, J + 2)])
        c = core.SystemCoefficients(k=2, m=1, lam=lam, pi=np.zeros((J, 2, 2)),
                                    K=np.zeros((2, 2)), M=np.zeros(2),
                                    b=core.DisturbanceSignal.zero(2))
        vals = rng.normal(size=(J + 2, 2))
        s = core.StateField(values=vals.copy(), m=1, n=0, t=0.0, ghost_level=0)
        out = solver.transport_step(s, c, g)
        r = g.dt / g.dx
        for j in range(J):
            i = j + 1
            plus = vals[i, 0] - r * lam[i - 1, 0] * (vals[i, 0] - vals[i - 1, 0])
            minus = vals[i, 1] - r * lam[i + 1, 1] * (vals[i + 1, 1] - vals[i, 1])
            assert out.values[i, 0] == pytest.approx(plus, rel=1e-14)
            assert out.values[i, 1] == pytest.approx(minus, rel=1e-14)

    def test_requires_fresh_ghosts(self):
        g = core.build_grid(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g)
        s = solver.initial_state(np.zeros((8, 2)), c)
        s.n = 3  # ghosts still at level 0
        with pytest.raises(ValueError, match="ghost"):
            solver.transport_step(s, c, g)

    def test_runtime_cfl_check(self):
        g = core.build_grid(1.0, 8, 1.0, 1.0, 1.0)
        c = make_coeffs(g, lam=(2.0, -1.0))  # faster than the grid allows
        s = solver.initial_state(np.zeros((8, 2)), c)
        with pytest.raises(ValueError, match="CFL"):
            solver.transport_step(s, c, g)


class TestSource:
    def test_zero_source_is_identity(self):
        g = core.build_grid(1.0, 4, 1.0, 1.0, 1.0)
        c = make_coeffs(g)
        rng = np.random.default_rng(6)
        s = core.StateField.from_interior(rng.normal(size=(4, 2)), m=1)
        out = solver.source_step(s, c, g, dt=0.1)
        assert np.allclose(out.values[1:-1], s.values[1:-1], rtol=0, atol=0)

    def test_symmetric_source_hand_value(self):
        # (1,1) with Pi = [[0.3,-0.1],[-0.1,0.3]], dt = 0.1:
        # Pi w = (0.2, 0.2), w - dt Pi w = (0.98, 0.98)
        g = core.Grid1D(l=1.0, J=1, T=1.0, cfl=1.0, lambda_max=1.0)
        c = core.SystemCoefficients(
            k=2, m=1, lam=np.tile([1.0, -1.0], (3, 1)),
            pi=np.array([[[0.3, -0.1], [-0.1, 0.3]]]),
            K=np.zeros((2, 2)), M=np.zeros(2), b=core.DisturbanceSignal.zero(2))
        s = core.StateField.from_interior([[1.0, 1.0]], m=1)
        out = solver.source_step(s, c, g, dt=0.1)
        assert out.values[1] == pytest.approx([0.98, 0.98], rel=1e-15)

    def test_scalar_explicit_euler(self):
        g = core.build_grid(1.0, 3, 1.0, 1.0, 1.0)
        gamma = 0.7
        c = core.SystemCoefficients(
            k=1, m=1, lam=np.ones((5, 1)),
            pi=np.full((3, 1, 1), gamma),
            K=np.zeros((1, 1)), M=np.zeros(1), b=core.DisturbanceSignal.zero(1))
        s = core.StateField.from_interior([[2.0], [3.0], [-1.0]], m=1)
        out = solver.source_step(s, c, g, dt=0.25)
        assert np.allclose(out.values[1:-1, 0],
                           np.array([2.0, 3.0, -1.0]) * (1 - 0.25 * gamma), rtol=1e-15)


class TestBoundary:
    def test_pure_injection(self):
        g = core.build_grid(1.0, 4, 1.0, 1.0, 1.0)
        c = make_coeffs(g, M=np.array([1.0, 1.0]))
        s = core.StateField.from_interior(np.zeros((4, 2)), m=1)
        solver.apply_boundary(s, c, b_value=np.array([0.3, -0.3]))
        assert s.values[0, 0] == pytest.approx(0.3)
        assert s.values[-1, 1] == pytest.approx(-0.3)
        assert s.values[0, 1] == 0.0 and s.values[-1, 0] == 0.0

    def test_feedback_block_product(self):
        g = core.build_grid(1.0, 4, 1.0, 1.0, 1.0)
        K = np.array([[0.0, 0.5], [0.5, 0.0]])
        c = make_coeffs(g, K=K, M=np.array([1.0, 1.0]))
        interior = np.zeros((4, 2))
        interior[0, 1] = 0.5      # W-_0
        interior[-1, 0] = -0.5    # W+_{J-1}
        s = core.StateField.from_interior(interior, m=1)
        solver.apply_boundary(s, c, b_value=np.zeros(2))
        assert s.values[0, 0] == pytest.approx(0.25)
        assert s.values[-1, 1] == pytest.approx(-0.25)

    def test_compatibility_ignores_disturbance(self):
        g = core.build_grid(1.0, 4, 1.0, 1.0, 1.0)
        K = np.array([[0.0, 0.5], [0.5, 0.0]])
        b = core.DisturbanceSignal.constant([9.0, 9.0])
        c = make_coeffs(g, K=K, M=np.array([1.0, 1.0]), b=b)
        interior = np.zeros((4, 2))
        interior[0, 1] = 0.5
        interior[-1, 0] = -0.5
        s = solver.initial_state(interior, c)
        assert s.values[0, 0] == pytest.approx(0.25)
        assert s.values[-1, 1] == pytest.approx(-0.25)
        assert s.ghost_level == 0


class TestRun:
    def small_sim(self, J=24, T=1.0, cfl=0.75, lam=(1.0, -1.0), gamma=None,
                  K=None, M=None, b=None, initial=None, **kwargs):
        g = core.build_grid(1.0, J, T, cfl, float(np.max(np.abs(lam))))
        c = make_coeffs(g, lam=lam, gamma=gamma, K=K, M=M, b=b)
        w = core.WeightField.implicit([1.0], [1.0], 0.5, g)
        if initial is None:
            initial = np.zeros((J, 2))
        return solver.SimulationRun(grid=g, coefficients=c, initial=initial,
                                    weights=w, **kwargs), g, c

    def test_zero_everything_stays_zero(self):
        sim, _, _ = self.small_sim()
        res = solver.run(sim)
        assert np.all(res.lyapunov == 0.0)
        assert np.all(res.final_state.values == 0.0)

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
            runs[name] = solver.run(sim).final_state.values
        mix = alpha * runs["w"] + beta * runs["v"]
        scale = np.max(np.abs(mix)) or 1.0
        assert np.allclose(runs["mix"], mix, rtol=0, atol=1e-10 * scale)

    def test_sup_tracker_monotone_and_lagged(self):
        b = core.DisturbanceSignal.pulsed_sine(2, amplitude=0.5, cutoff=0.6)
        sim, g, _ = self.small_sim(M=np.array([1.0, 1.0]), b=b,
                                   initial=np.ones((24, 2)))
        res = solver.run(sim)
        assert np.all(np.diff(res.sup_b_sq_before) >= 0)
        assert res.sup_b_sq_before[0] == 0.0
        # entry n holds the sup over levels strictly before n
        t1 = res.times[1]
        expected = float(np.sum(b(0.0) ** 2))
        assert res.sup_b_sq_before[1] == pytest.approx(expected, abs=1e-15)
        assert res.sup_b_sq_before[-1] == pytest.approx(
            max(float(np.sum(b(t) ** 2)) for t in res.times[:-1]), rel=1e-12)

    def test_blowup_detection_reports_step(self):
        # strongly anti-dissipative source with a large dt grows past overflow
        gamma = np.array([[-1e4, 0.0], [0.0, -1e4]])
        sim, _, _ = self.small_sim(T=50.0, gamma=gamma, initial=np.ones((24, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(solver.BlowupError) as exc:
                solver.run(sim)
        assert exc.value.step >= 1

    def test_history_stride(self):
        sim, g, _ = self.small_sim(initial=np.ones((24, 2)), stride=7)
        res = solver.run(sim)
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

        def norm_sq(state):
            w = state.interior()
            return float(g.dx * np.sum(w * w))

        sim = solver.SimulationRun(grid=g, coefficients=sc.coefficients,
                                   initial=sc.initial, hook=norm_sq)
        res = solver.run(sim)
        bound = (rep.C1_const * np.exp(-rep.eta * res.times) * res.lyapunov[0]
                 + (rep.C2_const / rep.eta) * (1 + 1 / sc.xi) * res.sup_b_sq_before)
        assert np.all(res.lyapunov <= bound + 1e-12 * max(1.0, res.lyapunov[0]))

    def test_exact_advection_at_unit_courant(self):
        # no source, no feedback, no disturbance: pure per-step shift
        J = 32
        rng = np.random.default_rng(8)
        init = rng.uniform(-0.5, 0.5, size=(J, 2))
        g = core.build_grid(1.0, J, 100.0 / J, 1.0, 1.0)
        c = make_coeffs(g)
        state = solver.initial_state(init.copy(), c)
        expect_p = init[:, 0].copy()
        expect_m = init[:, 1].copy()
        for n in range(g.N):
            tilde = solver.transport_step(state, c, g)
            new = solver.source_step(tilde, c, g)
            state.values[1:-1] = new.values[1:-1]
            state.n = n + 1
            state.t = g.time(n + 1)
            solver.apply_boundary(state, c, b_value=np.zeros(2))
            expect_p = np.concatenate([[0.0], expect_p[:-1]])
            expect_m = np.concatenate([expect_m[1:], [0.0]])
            assert np.allclose(state.values[1:-1, 0], expect_p, rtol=0, atol=1e-14)
            assert np.allclose(state.values[1:-1, 1], expect_m, rtol=0, atol=1e-14)
