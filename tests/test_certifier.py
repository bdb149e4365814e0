import math

import numpy as np
import pytest

from hypiss import certifier, core
from hypiss.models import build_linear_benchmark, euler_scenario, saint_venant_scenario


def benchmark(J=1600, cfl=0.75, mu=0.575, xi=0.125, k12=0.5, k21=0.5, **kw):
    return build_linear_benchmark(J=J, cfl=cfl, T=10.0, mu=mu, xi=xi,
                                  kappa12=k12, kappa21=k21, **kw)


class TestTransportCondition:
    @pytest.mark.parametrize("J,expected", [
        (200, 0.57335), (400, 0.57417), (800, 0.57459), (1600, 0.57479)])
    def test_certified_decay_rate_matches_reference(self, J, expected):
        sc = benchmark(J=J)
        c1 = certifier.check_transport(sc.coefficients, sc.weights, sc.grid)
        assert c1.passed
        assert c1.eta == pytest.approx(expected, abs=5e-5)
        # closed form mu alpha e^{-mu dx} never exceeds the tightest ratio
        assert c1.eta <= c1.eta_ratio + 1e-15
        assert c1.eta_ratio == pytest.approx((1 - math.exp(-0.575 / J)) * J, rel=1e-12)

    def test_decay_rate_independent_of_cfl(self):
        e1 = certifier.check_transport(*_cwg(benchmark(J=400, cfl=0.75))).eta
        e2 = certifier.check_transport(*_cwg(benchmark(J=400, cfl=1.0))).eta
        assert e1 == e2

    def test_constant_weights_fail(self):
        sc = benchmark(J=32)
        flat = core.WeightField.from_samples(np.ones((34, 2)))
        c1 = certifier.check_transport(sc.coefficients, flat, sc.grid)
        assert not c1.passed
        assert c1.eta is None
        assert c1.witness is not None and c1.witness.condition == "C1"
        assert np.all(np.abs(c1.entries) < 1e-14)


def _cwg(scenario):
    return scenario.coefficients, scenario.weights, scenario.grid


class TestConditionMatrixIndexing:
    """Vectorized condition builders against explicit per-cell loops on
    randomized variable-coefficient data (array row i holds cell j = i-1)."""

    def random_setup(self, seed, J=17):
        rng = np.random.default_rng(seed)
        g = core.Grid1D(1.0, J, 1.0, 0.75, 4.0)
        lam = np.column_stack([rng.uniform(0.5, 3.0, J + 2),
                               -rng.uniform(0.5, 3.0, J + 2)])
        pi = rng.normal(size=(J, 2, 2))
        c = core.SystemCoefficients(k=2, m=1, lam=lam, pi=pi,
                                    K=np.array([[0.0, 0.3], [0.2, 0.0]]),
                                    M=rng.uniform(0.1, 2.0, 2),
                                    b=core.DisturbanceSignal.zero(2))
        w = core.WeightField.from_samples(rng.uniform(0.2, 3.0, (J + 2, 2)))
        return g, c, w

    def test_transport_entries_match_loop(self):
        g, c, w = self.random_setup(31)
        entries = certifier.check_transport(c, w, g).entries
        lam, p, dx = c.lam, w.values, g.dx
        for j in range(g.J):
            i = j + 1
            plus = (-lam[i - 1, 0] * (p[i + 1, 0] - p[i, 0]) / dx
                    - (lam[i, 0] - lam[i - 1, 0]) / dx * p[i + 1, 0])
            a_next, a_here = -lam[i + 1, 1], -lam[i, 1]
            minus = (a_next * (p[i, 1] - p[i - 1, 1]) / dx
                     + (a_next - a_here) / dx * p[i - 1, 1])
            assert entries[j, 0] == pytest.approx(plus, rel=1e-13)
            assert entries[j, 1] == pytest.approx(minus, rel=1e-13)

    def test_source_matrices_match_loop(self):
        g, c, w = self.random_setup(32)
        mats = certifier._source_matrices(c, w, g.dt)
        for j in range(g.J):
            P = np.diag(w.values[j + 1])
            Pi = c.pi[j]
            expected = P @ Pi + Pi.T @ P - g.dt * Pi.T @ P @ Pi
            assert np.allclose(mats[j], expected, rtol=1e-13, atol=1e-15)

    def test_boundary_diagonals_match_definition(self):
        g, c, w = self.random_setup(33)
        d_out, d_in = certifier._boundary_diagonals(c, w)
        J = g.J
        lam, p = c.lam, w.values
        # outgoing: lam+ at cell J-1 with weight at right ghost,
        #           |lam-| at cell 0 with weight at left ghost
        assert d_out[0] == pytest.approx(lam[J, 0] * p[J + 1, 0], rel=1e-14)
        assert d_out[1] == pytest.approx(-lam[1, 1] * p[0, 1], rel=1e-14)
        # incoming: lam+ at left ghost with weight at cell 0,
        #           |lam-| at right ghost with weight at cell J-1
        assert d_in[0] == pytest.approx(lam[0, 0] * p[1, 0], rel=1e-14)
        assert d_in[1] == pytest.approx(-lam[J + 1, 1] * p[J, 1], rel=1e-14)


class TestSourceCondition:
    def test_zero_source_is_boundary_case(self):
        sc = benchmark(J=16, source=((0.0, 0.0), (0.0, 0.0)))
        c2 = certifier.check_source(*_cwg(sc))
        assert c2.passed
        assert np.allclose(c2.min_eigenvalues, 0.0, atol=1e-15)

    def test_benchmark_passes_with_hand_checked_eigenvalues(self):
        # at unit weights: M = Gamma^T + Gamma - dt Gamma^T Gamma with
        # eigenvalues just below (0.4, 0.8)
        sc = benchmark(J=1600)
        dt = sc.grid.dt
        g = np.array([[0.3, -0.1], [-0.1, 0.3]])
        m = g + g.T - dt * g.T @ g
        expected = np.linalg.eigvalsh(m)
        flat = core.WeightField.from_samples(np.ones((1602, 2)))
        c2 = certifier.check_source(sc.coefficients, flat, sc.grid)
        assert c2.passed
        j = 0
        assert np.allclose(c2.eigenvalues[j], expected, rtol=1e-12)
        assert expected[0] == pytest.approx(0.4, abs=1e-3)
        assert expected[1] == pytest.approx(0.8, abs=1e-3)

    def test_euler_counterexample_fails(self):
        sc = euler_scenario(J=64)
        c2 = certifier.check_source(*_cwg(sc))
        assert not c2.passed
        assert c2.witness is not None
        assert c2.witness.condition == "C2"
        assert c2.min_eigenvalues[c2.witness.j] < -certifier.PSD_REL_TOL


class TestThreeComponents:
    """k = 3 (two positive speeds, one negative) with random sources: the
    batched eigenvalue paths against per-cell numpy.linalg.eigvalsh loops.
    A shift of the symmetric part of the sources moves the checks across
    their thresholds; the speeds vary enough in x for Lambda' to matter."""

    MU = 0.5
    CASES = [(1, 0.0, False, False), (1, 4.0, True, True), (3, 4.0, True, False)]

    def setup(self, seed, shift, J=40):
        rng = np.random.default_rng(seed)
        g = core.Grid1D(1.0, J, 1.0, 0.75, 4.0)
        x = g.centers
        lam = np.column_stack([2.0 + 0.8 * np.sin(2 * np.pi * x), 1.0 + 0.5 * x,
                               -1.5 - 0.6 * np.cos(2 * np.pi * x)])
        sym = rng.normal(size=(J, 3, 3))
        skew = rng.normal(size=(J, 3, 3))
        pi = (0.5 * (sym + np.transpose(sym, (0, 2, 1))) + shift * np.eye(3)
              + 0.5 * (skew - np.transpose(skew, (0, 2, 1))))
        c = core.SystemCoefficients(k=3, m=2, lam=lam, pi=pi, K=np.zeros((3, 3)),
                                    M=np.ones(3), b=core.DisturbanceSignal.zero(3))
        w = core.WeightField.implicit([1.0, 2.0], [1.5], self.MU, g)
        return g, c, w

    @pytest.mark.parametrize("seed,shift,source_ok,continuous_ok", CASES)
    def test_source_matches_per_cell_loop(self, seed, shift, source_ok, continuous_ok):
        g, c, w = self.setup(seed, shift)
        c2 = certifier.check_source(c, w, g)
        scaled = []
        for j in range(g.J):
            P = np.diag(w.values[j + 1])
            Pi = c.pi[j]
            mat = P @ Pi + Pi.T @ P - g.dt * Pi.T @ P @ Pi
            expected = np.linalg.eigvalsh(mat)
            assert np.allclose(c2.eigenvalues[j], expected, rtol=1e-12, atol=1e-13)
            scaled.append(expected[0] / np.max(np.abs(mat)))
        assert np.array_equal(c2.min_eigenvalues, c2.eigenvalues[:, 0])
        assert bool(min(scaled) >= -certifier.PSD_REL_TOL) is source_ok
        assert c2.passed is source_ok
        if not source_ok:
            assert c2.witness.j == int(np.argmin(scaled))

    @pytest.mark.parametrize("seed,shift,source_ok,continuous_ok", CASES)
    def test_continuous_matches_per_cell_loop(self, seed, shift, source_ok, continuous_ok):
        g, c, w = self.setup(seed, shift)
        signs = np.array([-1.0, -1.0, 1.0])
        smallest = np.inf
        for j in range(g.J):
            p = w.values[j + 1]
            lam = c.lam[j + 1]
            lam_prime = (c.lam[j + 2] - c.lam[j]) / (2 * g.dx)
            P, Pi = np.diag(p), c.pi[j]
            q = np.diag(-lam * self.MU * signs * p - lam_prime * p) + Pi.T @ P + P @ Pi
            smallest = min(smallest, np.linalg.eigvalsh(q)[0])
        assert bool(smallest > certifier.PD_TOL) is continuous_ok
        assert certifier.check_continuous_sampled(c, w, g) is continuous_ok


class TestBoundaryCondition:
    def test_benchmark_gain_bounds(self):
        sc = benchmark(J=1600)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=0.125)
        assert c3.passed
        assert c3.kappa12_bound == pytest.approx(0.9428, abs=1e-4)
        assert c3.kappa21_bound == pytest.approx(0.5305, abs=1e-4)

    def test_saint_venant_gain_bounds(self):
        mu = 0.575
        sc = saint_venant_scenario(J=1600, mu=mu)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=0.125)
        assert c3.kappa12_bound == pytest.approx(0.5884, abs=1e-4)
        assert c3.kappa21_bound == pytest.approx(1.5108 * math.exp(-mu), abs=1e-4)

    def test_no_feedback_passes_any_xi(self):
        sc = benchmark(J=16, k12=0.0, k21=0.0)
        for xi in (1e-3, 0.125, 10.0, 1e3):
            assert certifier.check_boundary(sc.coefficients, sc.weights, xi).passed

    def test_gains_just_inside_and_outside_the_bound(self):
        sc = benchmark(J=64)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=0.125)
        b12, b21 = c3.kappa12_bound, c3.kappa21_bound
        inside = benchmark(J=64, k12=b12 * (1 - 1e-6), k21=b21 * (1 - 1e-6))
        outside = benchmark(J=64, k12=b12 * (1 + 1e-6), k21=b21)
        assert certifier.check_boundary(inside.coefficients, inside.weights, 0.125).passed
        assert not certifier.check_boundary(outside.coefficients, outside.weights,
                                            0.125).passed

    def test_bounds_nonincreasing_in_xi(self):
        sc = benchmark(J=32)
        xis = [0.01, 0.1, 0.5, 1.0, 5.0, 50.0]
        rows = certifier.sweep_xi(sc, xis)
        b12 = [r["kappa12_bound"] for r in rows]
        b21 = [r["kappa21_bound"] for r in rows]
        assert all(x >= y - 1e-15 for x, y in zip(b12, b12[1:]))
        assert all(x >= y - 1e-15 for x, y in zip(b21, b21[1:]))
        assert len({r["nu"] for r in rows}) == 1  # nu independent of xi
        env = [r["envelope_constant"] for r in rows]
        assert all(x >= y for x, y in zip(env, env[1:]))

    def test_large_xi_kills_the_bounds(self):
        sc = benchmark(J=16)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=1e8)
        assert c3.kappa12_bound < 1e-3
        assert c3.kappa21_bound < 1e-3


class TestDisturbanceGain:
    def test_benchmark_value(self):
        sc = benchmark(J=1600)
        nu = certifier.disturbance_gain(sc.coefficients, sc.weights)
        assert nu == pytest.approx(1.7768, abs=1e-4)
        assert nu == pytest.approx(math.exp(0.575 * (1 - 0.5 / 1600)), rel=1e-12)

    def test_zero_injection(self):
        sc = benchmark(J=16, m_diag=(0.0, 0.0))
        assert certifier.disturbance_gain(sc.coefficients, sc.weights) == 0.0

    def test_saint_venant_larger_branch(self):
        mu = 0.575
        sc = saint_venant_scenario(J=200, mu=mu)
        g = sc.grid
        m1, m2 = sc.coefficients.M
        lam1 = sc.coefficients.lam[0, 0]
        lam2 = abs(sc.coefficients.lam[-1, 1])
        branch_left = lam1 * 0.0992 * math.exp(-mu * g.centers[1]) * m1 ** 2
        branch_right = lam2 * 0.2008 * math.exp(mu * g.centers[-2]) * m2 ** 2
        nu = certifier.disturbance_gain(sc.coefficients, sc.weights)
        assert nu == pytest.approx(max(branch_left, branch_right), rel=1e-12)


class TestCertify:
    def test_benchmark_report(self):
        sc = benchmark(J=1600)
        rep = certifier.certify(sc)
        assert rep.overall
        assert rep.eta == pytest.approx(0.57479, abs=5e-5)
        assert rep.nu == pytest.approx(1.7768, abs=1e-4)
        assert rep.first_failure is None
        assert rep.eta_dt_ok
        assert rep.zeta == pytest.approx(math.exp(-0.575 * (1 - 0.5 / 1600)), rel=1e-12)
        assert rep.beta == pytest.approx(math.exp(0.575 * (1 - 0.5 / 1600)), rel=1e-12)
        assert rep.C1_const == pytest.approx(rep.beta / rep.zeta, rel=1e-14)
        assert rep.C2_const == pytest.approx(rep.nu / rep.zeta, rel=1e-14)
        assert rep.continuous_sampled_ok
        d = rep.to_dict()
        assert d["overall"] and d["c2"]["passed"]
        assert "PASS" in rep.to_text()

    def test_euler_fails_with_witness_but_returns_full_report(self):
        sc = euler_scenario(J=64)
        rep = certifier.certify(sc)
        assert not rep.overall
        assert rep.first_failure is not None
        assert rep.first_failure.condition == "C2"
        assert rep.c1.passed and rep.c3.passed
        assert rep.nu > 0
        assert "FAIL" in rep.to_text()

    def test_gain_outside_bound_fails_boundary_check(self):
        sc = benchmark(J=64, k12=0.95)  # above the 0.9428 admissible bound
        rep = certifier.certify(sc)
        assert not rep.overall
        assert rep.first_failure.condition == "C3"

    def test_single_point_sweep_consistent_with_certify(self):
        sc = benchmark(J=64)
        rep = certifier.certify(sc)
        row = certifier.sweep_xi(sc, [0.125])[0]
        assert row["kappa12_bound"] == rep.c3.kappa12_bound
        assert row["kappa21_bound"] == rep.c3.kappa21_bound
        assert row["nu"] == rep.nu
        assert row["envelope_constant"] == pytest.approx(
            (1 + 1 / 0.125) * rep.nu / rep.eta, rel=1e-14)
