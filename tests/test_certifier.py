import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypiss import certifier, core
from hypiss.models import build_linear_benchmark, euler_scenario, saint_venant_scenario
from hypiss.reports import REFERENCE_ETA
from hypiss.scenario import load_scenario

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


class TestTransportCondition:
    @pytest.mark.parametrize("J,expected", sorted(REFERENCE_ETA.items()))
    def test_certified_decay_rate_matches_reference(self, J, expected):
        sc = build_linear_benchmark(J=J)
        c1 = certifier.check_transport(sc.coefficients, sc.weights, sc.grid)
        assert c1.passed
        assert c1.eta == pytest.approx(expected, abs=5e-5)
        # closed form mu alpha e^{-mu dx} never exceeds the tightest ratio
        assert c1.eta <= c1.eta_ratio + 1e-15
        assert c1.eta_ratio == pytest.approx((1 - math.exp(-0.575 / J)) * J, rel=1e-12)

    def test_decay_rate_independent_of_cfl(self):
        e1 = certifier.check_transport(*_cwg(build_linear_benchmark(J=400, cfl=0.75))).eta
        e2 = certifier.check_transport(*_cwg(build_linear_benchmark(J=400, cfl=1.0))).eta
        assert e1 == e2

    def test_constant_weights_fail(self):
        sc = build_linear_benchmark(J=32)
        flat = core.WeightField(np.ones((34, 2)))
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
                                    b=core.DisturbanceSignal.constant(np.zeros(2)))
        w = core.WeightField(rng.uniform(0.2, 3.0, (J + 2, 2)))
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


def _einsum_source_matrices(coefficients, weights, dt):
    """C2's matrices with Pi^T P Pi as one three-operand einsum, the
    reference that :func:`certifier._source_matrices` must match bit for bit."""
    p, pi = weights.interior(), coefficients.pi
    p_pi = p[:, :, None] * pi
    return (p_pi + np.transpose(p_pi, (0, 2, 1))
            - dt * np.einsum("jca,jc,jcb->jab", pi, p, pi))


def _assert_same_bits(got, expected):
    # through the bit patterns, so that -0.0 and 0.0 differ
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestSourceMatricesBitIdentical:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_files_at_6400_cells(self, path):
        sc = load_scenario(str(path)).build(J=6400)
        _assert_same_bits(
            certifier._source_matrices(sc.coefficients, sc.weights, sc.grid.dt),
            _einsum_source_matrices(sc.coefficients, sc.weights, sc.grid.dt))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.sampled_from([2, 3, 4]),
           scale=st.floats(1e-3, 1e3), dt=st.floats(1e-3, 1.0))
    def test_drawn_systems_of_two_to_four_components(self, data, k, scale, dt):
        J = data.draw(st.integers(1, 6))
        pi = scale * data.draw(hnp.arrays(float, (J, k, k), elements=st.floats(-1.0, 1.0)))
        p = data.draw(hnp.arrays(float, (J + 2, k), elements=st.floats(1e-3, 1e3)))
        lam = np.tile([1.0] + [-1.0] * (k - 1), (J + 2, 1))
        c = core.SystemCoefficients(k=k, m=1, lam=lam, pi=pi, K=np.zeros((k, k)),
                                    M=np.ones(k), b=core.DisturbanceSignal.constant(np.zeros(k)))
        w = core.WeightField(p)
        _assert_same_bits(certifier._source_matrices(c, w, dt),
                          _einsum_source_matrices(c, w, dt))


def _eigvalsh_source_check(c, w, dt):
    """C2's smallest eigenvalues, failing cells and witness (j, value) from
    numpy.linalg.eigvalsh on :func:`certifier._source_matrices`."""
    with np.errstate(all="ignore"):
        mats = certifier._source_matrices(c, w, dt)
        min_eigs = np.linalg.eigvalsh(mats)[:, 0]
        scale = np.maximum(np.max(np.abs(mats), axis=(1, 2)), 1e-300)
        ok = min_eigs >= -certifier.PSD_REL_TOL * scale
        j = int(np.argmin(min_eigs / scale))
    return min_eigs, int(np.sum(~ok)), None if ok.all() else (j, min_eigs[j])


def _assert_source_check(got, expected):
    min_eigs, failing, witness = expected
    _assert_same_bits(got.min_eigenvalues, min_eigs)
    assert got.failing_cells == failing
    assert (got.witness is None) is (witness is None)
    if witness is not None:
        assert (got.witness.condition, got.witness.j, got.witness.component) == ("C2", witness[0], None)
        _assert_same_bits(np.array(got.witness.value), np.array(witness[1]))


def _two_component_system(pi, p):
    J = pi.shape[0]
    c = core.SystemCoefficients(k=2, m=1, lam=np.tile([1.0, -1.0], (J + 2, 1)), pi=pi,
                                K=np.zeros((2, 2)), M=np.ones(2),
                                b=core.DisturbanceSignal.constant(np.zeros(2)))
    return c, core.WeightField(p)


def _must_not_run(*args, **kwargs):
    raise AssertionError("this path must not run")


class TestSourceEigenvaluesBitIdentical:
    """C2 for k = 2, from LAPACK's 2x2 steps in NumPy, against
    numpy.linalg.eigvalsh on :func:`certifier._source_matrices`, bit for bit."""

    @pytest.mark.parametrize("J", [2, 50, 1600, 6400])
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_files_without_eigvalsh(self, path, J, monkeypatch):
        sc = load_scenario(str(path)).build(J=J)
        expected = _eigvalsh_source_check(sc.coefficients, sc.weights, sc.grid.dt)
        monkeypatch.setattr(np.linalg, "eigvalsh", _must_not_run)
        _assert_source_check(certifier.check_source(*_cwg(sc)), expected)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), scale=st.floats(1e-6, 1e6), dt=st.floats(1e-3, 1.0))
    def test_drawn_systems(self, data, scale, dt):
        J = data.draw(st.integers(1, 8))
        pi = scale * data.draw(hnp.arrays(float, (J, 2, 2), elements=st.floats(-1.0, 1.0)))
        p = data.draw(hnp.arrays(float, (J + 2, 2), elements=st.floats(1e-3, 1e3)))
        c, w = _two_component_system(pi, p)
        expected = _eigvalsh_source_check(c, w, dt)
        with np.errstate(all="ignore"):    # a zero cell's witness may divide by 1e-300
            got = certifier.check_source(c, w, SimpleNamespace(dt=dt))
        _assert_source_check(got, expected)
        mats = certifier._source_matrices(c, w, dt)
        for entry, (r, s) in zip(certifier._source_entries_2x2(c, w, dt),
                                 [(0, 0), (1, 0), (0, 1), (1, 1)]):
            _assert_same_bits(entry, mats[:, r, s])

    def test_entries_and_scale(self):
        rng = np.random.default_rng(7)
        pi = rng.normal(size=(64, 2, 2))
        pi[0] = [[1.0, -0.0], [-0.0, 1.0]]     # b = -0.0 only if the sums over c start at 0.0
        c, w = _two_component_system(pi, rng.uniform(0.5, 2.0, (66, 2)))
        mats = certifier._source_matrices(c, w, 0.5)
        a, b, b_upper, d = entries = certifier._source_entries_2x2(c, w, 0.5)
        for entry, (r, s) in zip(entries, [(0, 0), (1, 0), (0, 1), (1, 1)]):
            _assert_same_bits(entry, mats[:, r, s])
        # in some cells the upper off-diagonal, rounded apart from the lower, is the largest entry
        assert np.any(np.abs(b_upper) > np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(d)))
        _assert_same_bits(certifier._min_eigs_and_scale(c, w, 0.5)[1],
                          np.max(np.abs(mats), axis=(1, 2)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), shape=st.sampled_from(
        ["free", "equal diagonals", "zero off-diagonal", "zero diagonal, b * b subnormal",
         "near split", "a = -c", "|a - c| = 2|b|"]))
    def test_drawn_entries_of_each_shape(self, data, shape):
        J = data.draw(st.integers(1, 8))
        unit = hnp.arrays(float, J, elements=st.floats(-1.0, 1.0))
        exponent = data.draw(hnp.arrays(int, J, elements=st.integers(-110, 140)))
        a, b, c = (data.draw(unit) * 10.0 ** exponent for _ in range(3))
        if shape == "equal diagonals":
            c = a.copy()
        elif shape == "zero off-diagonal":
            b = np.copysign(0.0, b)
        elif shape == "zero diagonal, b * b subnormal":
            a, b = np.copysign(0.0, a), data.draw(unit) * 1e-156
        elif shape == "near split":    # about dsterf's first split threshold
            factor = 1.0 + data.draw(hnp.arrays(int, J, elements=st.integers(-8, 8))) * 2.0 ** -52
            b = np.copysign(np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * 2.0 ** -53 * factor, b)
        elif shape == "a = -c":
            c = -a
        elif shape == "|a - c| = 2|b|":
            b = np.copysign((a - c) / 2.0, b)
        lower = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        assume(np.all((lower >= 1e-120) & (lower <= 1e145)))
        mats = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)
        _assert_same_bits(certifier._min_eig_2x2(a, b, c), np.linalg.eigvalsh(mats)[:, 0])

    @pytest.mark.parametrize("a,b,c", [
        ("0x1.e8328b0ffe248p-7", "0x1.083399b327e0dp-59", "0x1.1df5c1d2ea8b9p-6"),
        ("-0x1.2c72c6118712fp-14", "0x1.0257ec05760e0p-67", "0x1.bc473dc592754p-15"),
        ("-0x1.fac09cb53dae4p-6", "0x1.16b5d5f0888d5p-58", "-0x1.3293d4059f759p-5"),
        ("0x1.557f8f1388307p-6", "0x1.128f7945253a7p-59", "-0x1.b97c8a7e7c498p-7")])
    def test_cells_that_only_the_second_split_test_splits(self, a, b, c):
        # b is just above the first test's threshold, and b * b rounds to the second's
        a, b, c = (np.array([float.fromhex(v)]) for v in (a, b, c))
        mats = np.array([[[a[0], b[0]], [b[0], c[0]]]])
        _assert_same_bits(certifier._min_eig_2x2(a, b, c), np.linalg.eigvalsh(mats)[:, 0])

    @pytest.mark.parametrize("signs", list(itertools.product([0.0, -0.0], repeat=3)),
                             ids=lambda signs: "".join("-" if np.signbit(v) else "+" for v in signs))
    def test_all_zero_cells_without_eigvalsh(self, signs, monkeypatch):
        # an all-zero source matrix needs no rescaling in LAPACK, so it stays off
        # eigvalsh; Pi's diagonal and off-diagonal zeros give (a, b, c) these signs
        rng = np.random.default_rng(6)
        pi = rng.normal(size=(6, 2, 2))
        pi[3] = [[signs[0], signs[1]], [signs[1], signs[2]]]
        c, w = _two_component_system(pi, rng.uniform(0.5, 2.0, (8, 2)))
        a, b, _, d = certifier._source_entries_2x2(c, w, 0.1)
        _assert_same_bits(np.array([a[3], b[3], d[3]]), np.array(signs))
        expected = _eigvalsh_source_check(c, w, 0.1)
        monkeypatch.setattr(np.linalg, "eigvalsh", _must_not_run)
        _assert_source_check(certifier.check_source(c, w, SimpleNamespace(dt=0.1)), expected)

    @pytest.mark.parametrize("value", [1e150, 1e-130, np.inf, np.nan])
    def test_a_cell_outside_the_band_sends_the_batch_to_eigvalsh(self, value, monkeypatch):
        rng = np.random.default_rng(5)
        pi = rng.normal(size=(6, 2, 2))
        if value < 1:
            pi[3] *= value           # every entry of one cell tiny
        else:
            pi[3, 0, 0] = value
        c, w = _two_component_system(pi, rng.uniform(0.5, 2.0, (8, 2)))
        expected = _eigvalsh_source_check(c, w, 0.1)
        monkeypatch.setattr(certifier, "_min_eig_2x2", _must_not_run)
        with np.errstate(all="ignore"):
            got = certifier.check_source(c, w, SimpleNamespace(dt=0.1))
        _assert_source_check(got, expected)


class TestSourceCondition:
    def test_zero_source_is_boundary_case(self):
        sc = build_linear_benchmark(J=16, source=((0.0, 0.0), (0.0, 0.0)))
        c2 = certifier.check_source(*_cwg(sc))
        assert c2.passed
        assert np.allclose(c2.min_eigenvalues, 0.0, atol=1e-15)

    def test_benchmark_passes_with_hand_checked_eigenvalues(self):
        # at unit weights: M = Gamma^T + Gamma - dt Gamma^T Gamma with
        # eigenvalues just below (0.4, 0.8)
        sc = build_linear_benchmark()
        dt = sc.grid.dt
        g = np.array([[0.3, -0.1], [-0.1, 0.3]])
        m = g + g.T - dt * g.T @ g
        expected = np.linalg.eigvalsh(m)
        flat = core.WeightField(np.ones((1602, 2)))
        c2 = certifier.check_source(sc.coefficients, flat, sc.grid)
        assert c2.passed
        j = 0
        assert c2.min_eigenvalues[j] == pytest.approx(expected[0], rel=1e-12)
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
    batched eigenvalue path against a per-cell numpy.linalg.eigvalsh loop.
    A shift of the symmetric part of the sources moves C2 across its
    threshold."""

    MU = 0.5
    CASES = [(1, 0.0, False), (1, 4.0, True), (3, 4.0, True)]   # (seed, shift, C2 verdict)

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
                                    M=np.ones(3), b=core.DisturbanceSignal.constant(np.zeros(3)))
        w = core.WeightField.implicit([1.0, 2.0], [1.5], self.MU, g)
        return g, c, w

    @pytest.mark.parametrize("seed,shift,source_ok", CASES)
    def test_source_matches_per_cell_loop(self, seed, shift, source_ok):
        g, c, w = self.setup(seed, shift)
        c2 = certifier.check_source(c, w, g)
        scaled = []
        for j in range(g.J):
            P = np.diag(w.values[j + 1])
            Pi = c.pi[j]
            mat = P @ Pi + Pi.T @ P - g.dt * Pi.T @ P @ Pi
            expected = np.linalg.eigvalsh(mat)
            assert np.isclose(c2.min_eigenvalues[j], expected[0], rtol=1e-12, atol=1e-13)
            scaled.append(expected[0] / np.max(np.abs(mat)))
        assert bool(min(scaled) >= -certifier.PSD_REL_TOL) is source_ok
        assert c2.passed is source_ok
        if not source_ok:
            assert c2.witness.j == int(np.argmin(scaled))


class TestBoundaryCondition:
    def test_saint_venant_gain_bounds(self):
        mu = 0.575
        sc = saint_venant_scenario(J=1600, mu=mu)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=0.125)
        assert c3.kappa12_bound == pytest.approx(0.5884, abs=1e-4)
        assert c3.kappa21_bound == pytest.approx(1.5108 * math.exp(-mu), abs=1e-4)

    def test_no_feedback_passes_any_xi(self):
        sc = build_linear_benchmark(J=16, kappa12=0.0, kappa21=0.0)
        for xi in (1e-3, 0.125, 10.0, 1e3):
            assert certifier.check_boundary(sc.coefficients, sc.weights, xi).passed

    def test_gains_just_inside_and_outside_the_bound(self):
        sc = build_linear_benchmark(J=64)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=0.125)
        b12, b21 = c3.kappa12_bound, c3.kappa21_bound
        inside = build_linear_benchmark(J=64, kappa12=b12 * (1 - 1e-6), kappa21=b21 * (1 - 1e-6))
        outside = build_linear_benchmark(J=64, kappa12=b12 * (1 + 1e-6), kappa21=b21)
        assert certifier.check_boundary(inside.coefficients, inside.weights, 0.125).passed
        assert not certifier.check_boundary(outside.coefficients, outside.weights,
                                            0.125).passed

    def test_bounds_nonincreasing_in_xi(self):
        sc = build_linear_benchmark(J=32)
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
        sc = build_linear_benchmark(J=16)
        c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi=1e8)
        assert c3.kappa12_bound < 1e-3
        assert c3.kappa21_bound < 1e-3


class TestDisturbanceGain:
    def test_benchmark_value(self):
        sc = build_linear_benchmark()
        nu = certifier.disturbance_gain(sc.coefficients, sc.weights)
        assert nu == pytest.approx(math.exp(0.575 * (1 - 0.5 / 1600)), rel=1e-12)

    def test_zero_injection(self):
        sc = build_linear_benchmark(J=16, m_diag=(0.0, 0.0))
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
        rep = certifier.certify(build_linear_benchmark())
        assert rep.overall
        assert rep.first_failure is None
        assert rep.eta_dt_ok
        assert rep.zeta == pytest.approx(math.exp(-0.575 * (1 - 0.5 / 1600)), rel=1e-12)
        assert rep.beta == pytest.approx(math.exp(0.575 * (1 - 0.5 / 1600)), rel=1e-12)
        assert rep.C1_const == pytest.approx(rep.beta / rep.zeta, rel=1e-14)
        assert rep.C2_const == pytest.approx(rep.nu / rep.zeta, rel=1e-14)
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

    @pytest.mark.parametrize("eps,passed,failing", [(1e-13, True, 0), (1e-3, False, 50)])
    def test_c2_failing_cells_follow_the_verdict(self, eps, passed, failing):
        # a PSD rank-one source tilted by -eps u u^T: its C2 minimum
        # eigenvalue is about -2 eps at every cell, inside PSD_REL_TOL for
        # the small eps and outside it for the large one
        v, u = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
        sc = build_linear_benchmark(J=50, T=1.0, mu=None,
                                    source=0.3 * np.outer(v, v) - eps * np.outer(u, u))
        c2 = certifier.certify(sc).to_dict()["c2"]
        assert c2["min_eigenvalue"] < 0
        assert c2["passed"] is passed
        assert c2["failing_cells"] == failing

    def test_gain_outside_bound_fails_boundary_check(self):
        sc = build_linear_benchmark(J=64, kappa12=0.95)  # above the 0.9428 admissible bound
        rep = certifier.certify(sc)
        assert not rep.overall
        assert rep.first_failure.condition == "C3"

    def test_single_point_sweep_consistent_with_certify(self):
        sc = build_linear_benchmark(J=64)
        rep = certifier.certify(sc)
        row = certifier.sweep_xi(sc, [0.125])[0]
        assert row["kappa12_bound"] == rep.c3.kappa12_bound
        assert row["kappa21_bound"] == rep.c3.kappa21_bound
        assert row["nu"] == rep.nu
        assert row["envelope_constant"] == pytest.approx(
            (1 + 1 / 0.125) * rep.nu / rep.eta, rel=1e-14)


class TestSweepBounds:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_sweep_bounds_are_the_boundary_checks_bounds(self, path):
        sc = load_scenario(str(path)).build()
        xis = [float(x) for x in np.linspace(0.05, 1.0, 20)]   # the sweep command's default
        rows = certifier.sweep_xi(sc, xis)
        assert len(rows) == 20
        for xi, row in zip(xis, rows):
            c3 = certifier.check_boundary(sc.coefficients, sc.weights, xi)
            assert c3.kappa12_bound is not None and c3.kappa21_bound is not None
            for key, bound in (("kappa12_bound", c3.kappa12_bound),
                               ("kappa21_bound", c3.kappa21_bound)):
                assert np.float64(row[key]).view(np.uint64) == np.float64(bound).view(np.uint64)

    @pytest.mark.parametrize("xi", [0.0, -1.0])
    def test_non_positive_xi_rejected(self, xi):
        sc = build_linear_benchmark(J=16)
        with pytest.raises(ValueError, match="^xi must be positive$"):
            certifier.sweep_xi(sc, [xi])
