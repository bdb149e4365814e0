import math

import numpy as np
import pytest

from hypiss import core
from hypiss.models import build_linear_benchmark


class TestGrid:
    def test_benchmark_resolution(self):
        g = core.Grid1D(1.0, 1600, 10.0, 0.75, 1.0)
        assert g.dx == pytest.approx(1.0 / 1600, rel=1e-15)
        assert g.dt == pytest.approx(0.75 / 1600, rel=1e-15)
        assert g.dt * 1.0 / g.dx <= 1.0 + 1e-12

    def test_exact_division(self):
        g = core.Grid1D(1.0, 2, 1.0, 1.0, 1.0)
        assert g.dx == 0.5
        assert g.dt == 0.5
        assert g.N == 2
        assert np.diff(g.times()) == pytest.approx([0.5, 0.5])

    def test_fast_speeds_shrink_dt(self):
        g = core.Grid1D(1.0, 1600, 10.0, 0.75, 7.4294)
        assert g.dt == pytest.approx(0.75 / (1600 * 7.4294), rel=1e-14)

    def test_centers_include_ghosts_and_spacing(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        xs = g.centers
        assert xs.shape == (10,)
        assert xs[0] == pytest.approx(-g.dx / 2)
        assert xs[-1] == pytest.approx(1.0 + g.dx / 2)
        assert np.allclose(np.diff(xs), g.dx, rtol=1e-14)

    def test_final_step_lands_on_T(self):
        g = core.Grid1D(1.0, 3, 1.0, 0.7, 1.0)
        times = g.times()
        assert times[-1] == g.T
        assert 0 < times[-1] - times[-2] <= g.dt + 1e-15

    @pytest.mark.parametrize("kwargs", [
        dict(l=0.0, J=4, T=1.0, cfl=0.5, lambda_max=1.0),
        dict(l=1.0, J=1, T=1.0, cfl=0.5, lambda_max=1.0),
        dict(l=1.0, J=4, T=-1.0, cfl=0.5, lambda_max=1.0),
        dict(l=1.0, J=4, T=1.0, cfl=1.5, lambda_max=1.0),
        dict(l=1.0, J=4, T=1.0, cfl=0.0, lambda_max=1.0),
        dict(l=1.0, J=4, T=1.0, cfl=0.5, lambda_max=0.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            core.Grid1D(**kwargs)

    def test_one_cell_rejected_with_count(self):
        with pytest.raises(ValueError, match="need at least two cells, got J=1"):
            core.Grid1D(1.0, 1, 1.0, 0.5, 1.0)


class TestSampling:
    """Speeds sampled at the J + 2 centers and sources at the J cells, as
    :class:`core.SystemCoefficients` receives them."""

    def grid(self, J=16):
        return core.Grid1D(1.0, J, 1.0, 0.75, 1.0)

    def coefficients(self, g, lam_fn, K=None):
        lam = np.array([lam_fn(x) for x in g.centers])
        return core.SystemCoefficients(
            k=2, m=1, lam=lam, pi=np.zeros((g.J, 2, 2)),
            K=np.zeros((2, 2)) if K is None else K, M=np.zeros(2),
            b=core.DisturbanceSignal.zero(2))

    def test_constant_fields(self):
        lam = np.array([1.0, -1.0])
        gamma = np.array([[0.3, -0.1], [-0.1, 0.3]])
        c = build_linear_benchmark(J=16, cfl=0.75, T=1.0, mu=0.5, xi=0.125, kappa12=0.0,
                                   kappa21=0.0, speeds=lam, source=gamma).coefficients
        assert c.k == 2 and c.m == 1
        assert c.lam.shape == (18, 2)
        assert np.all(c.lam == lam)
        assert c.pi.shape == (16, 2, 2)
        assert np.all(c.pi == gamma)

    def test_saint_venant_speeds(self):
        g = self.grid()
        lam_fn = lambda x: np.array([3.0 + math.sqrt(9.81 * 2.0),
                                     3.0 - math.sqrt(9.81 * 2.0)])
        c = self.coefficients(g, lam_fn)
        assert c.lam[0, 0] == pytest.approx(7.4294, abs=5e-5)
        assert c.lam[0, 1] == pytest.approx(-1.4294, abs=5e-5)

    def test_rejects_sign_change(self):
        # centers (j + 1/2)/16: the positive speed 0.5 - x turns negative at j = 8
        g = self.grid()
        with pytest.raises(ValueError, match=r"sign pattern violated at cell j=8, component 1"):
            self.coefficients(g, lambda x: np.array([0.5 - x, -1.0]))
        with pytest.raises(ValueError, match=r"sign pattern violated at cell j=-1, component 2"):
            self.coefficients(g, lambda x: np.array([1.0, x + 0.5 if x < 0 else -1.0]))

    def test_rejects_zero_speed(self):
        g = self.grid()
        with pytest.raises(ValueError, match=r"zero characteristic speed sampled at cell j=-1"):
            self.coefficients(g, lambda x: np.array([0.0, -1.0]))

    def test_rejects_unordered_blocks(self):
        g = self.grid()
        with pytest.raises(ValueError, match="ordered"):
            self.coefficients(g, lambda x: np.array([-1.0, 1.0]))

    def test_feedback_block_structure_enforced(self):
        g = self.grid()
        with pytest.raises(ValueError, match="zero diagonal blocks"):
            self.coefficients(g, lambda x: np.array([1.0, -1.0]),
                              K=np.array([[0.1, 0.0], [0.0, 0.0]]))


class TestWeights:
    def test_implicit_samples_at_ghost_centers(self):
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        mu = 0.575
        w = core.WeightField.implicit([1.0], [1.0], mu, g)
        assert w.values[0, 0] == pytest.approx(math.exp(mu * g.dx / 2), rel=1e-14)
        assert w.values[0, 1] == pytest.approx(math.exp(-mu * g.dx / 2), rel=1e-14)
        assert w.values[-1, 0] == pytest.approx(math.exp(-mu * (1 + g.dx / 2)), rel=1e-14)
        assert w.values[-1, 1] == pytest.approx(math.exp(mu * (1 + g.dx / 2)), rel=1e-14)
        assert w.is_implicit

    def test_positive_required(self):
        with pytest.raises(ValueError):
            core.WeightField.from_samples([[1.0, -1.0]])
        g = core.Grid1D(1.0, 4, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            core.WeightField.implicit([0.0], [1.0], 0.5, g)
        with pytest.raises(ValueError):
            core.WeightField.implicit([1.0], [1.0], -0.5, g)

    def test_non_finite_rejected_with_cell(self):
        with pytest.raises(ValueError, match=r"cell j=-1, component 1 holds nan"):
            core.WeightField.from_samples(np.full((10, 2), np.nan))
        vals = np.ones((6, 2))
        vals[3, 1] = np.inf
        with pytest.raises(ValueError, match=r"cell j=2, component 2 holds inf"):
            core.WeightField.from_samples(vals)
        # exp(mu x) overflows on l = 1 for mu this large
        g = core.Grid1D(1.0, 8, 1.0, 1.0, 1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            core.WeightField.implicit([1.0], [1.0], 720.0, g)

    def test_eigen_bounds_interior_only(self):
        vals = np.ones((6, 2))
        vals[0] = 100.0   # ghost rows must not affect zeta/beta
        vals[-1] = 1e-3
        vals[2, 1] = 0.25
        vals[3, 0] = 4.0
        w = core.WeightField.from_samples(vals)
        zeta, beta = w.eigen_bounds()
        assert zeta == 0.25
        assert beta == 4.0


class TestDisturbance:
    def test_pulsed_sine_values(self):
        b = core.DisturbanceSignal.pulsed_sine(2, amplitude=0.01, cutoff=5.0)
        assert b(0.0) == pytest.approx([0.0, 0.0])
        v = b(4.5)
        assert v[0] == pytest.approx(0.01, abs=1e-15)
        assert v[1] == pytest.approx(-0.01, abs=1e-15)
        assert np.all(b(5.0) == 0.0)
        assert np.all(b(7.25) == 0.0)

    def test_tabulated_interpolates(self):
        b = core.DisturbanceSignal.tabulated([0.0, 1.0], [[0.0, 2.0], [1.0, 0.0]])
        assert b(0.5) == pytest.approx([0.5, 1.0])
        assert b(2.0) == pytest.approx([1.0, 0.0])  # constant extrapolation

    def test_zero_and_constant(self):
        assert np.all(core.DisturbanceSignal.zero(3)(1.23) == 0.0)
        assert core.DisturbanceSignal.constant([0.3, -0.3])(9.9) == pytest.approx([0.3, -0.3])

    @pytest.mark.parametrize("signal", [
        core.DisturbanceSignal.zero(2),
        core.DisturbanceSignal.constant([0.3, -0.3]),
        core.DisturbanceSignal.pulsed_sine(2, amplitude=0.01, cutoff=5.0),
        core.DisturbanceSignal.tabulated([0.0, 1.0, 4.0], [[0.0, 2.0], [1.0, 0.0], [0.5, 0.5]]),
    ])
    def test_all_levels_in_one_call(self, signal):
        times = core.Grid1D(1.0, 8, 7.3, 0.9, 1.0).times()
        levels = signal(times)
        assert levels.shape == (times.size, 2)
        for t, row in zip(times, levels):
            assert np.array_equal(signal(float(t)), row)

    def test_pulsed_sine_matches_the_float_formula_bit_for_bit(self):
        times = np.linspace(0.0, 6.0, 20001)
        levels = core.DisturbanceSignal.pulsed_sine(2, amplitude=0.01, cutoff=5.0)(times)
        expected = [[0.01 * math.sin(math.pi * t) ** 2, -(0.01 * math.sin(math.pi * t) ** 2)]
                    if t < 5.0 else [0.0, 0.0] for t in times.tolist()]
        assert np.array_equal(levels, expected)
