import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypiss import models
from hypiss.lambertw import lambert_w_minus1
from hypiss.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_FILES = sorted([*ROOT.glob("scenarios/*.json"), *ROOT.glob("tests/scenarios/*.json")])


class TestLinearBenchmark:
    def test_structure(self):
        sc = models.build_linear_benchmark(J=64, cfl=0.75, T=10.0, mu=0.575,
                                           xi=0.125, kappa12=0.5, kappa21=0.5)
        c = sc.coefficients
        assert c.k == 2 and c.m == 1
        assert np.all(c.lam[:, 0] == 1.0) and np.all(c.lam[:, 1] == -1.0)
        assert np.all(c.K == np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert np.all(c.M == 1.0)
        assert np.all(sc.initial == np.tile([-0.5, 0.5], (64, 1)))

    def test_disturbance_profile(self):
        sc = models.build_linear_benchmark(J=16, cfl=1.0, T=10.0, mu=0.5,
                                           xi=0.125, kappa12=0.5, kappa21=0.5)
        d = sc.coefficients.b
        assert d(0.0) == pytest.approx([0.0, 0.0])
        assert d(4.5)[0] == pytest.approx(0.01, abs=1e-16)
        assert d(4.5)[1] == pytest.approx(-0.01, abs=1e-16)
        assert np.all(d(5.0) == 0.0)

    def test_sampled_fields_pass_through(self):
        J = 8
        x = (np.arange(-1, J + 1) + 0.5) / J
        speeds = np.stack([1.0 + x, -2.0 + 0.5 * x], axis=1)
        source = np.arange(J * 4, dtype=float).reshape(J, 2, 2)
        sc = models.build_linear_benchmark(J=J, cfl=0.5, T=1.0, mu=0.5, xi=0.125,
                                           kappa12=0.0, kappa21=0.0,
                                           speeds=speeds, source=source)
        assert np.array_equal(sc.coefficients.lam, speeds)
        assert np.array_equal(sc.coefficients.pi, source)
        assert sc.grid.lambda_max == float(np.max(np.abs(speeds)))
        with pytest.raises(ValueError):
            models.build_linear_benchmark(J=J, cfl=0.5, T=1.0, mu=0.5, xi=0.125,
                                          kappa12=0.0, kappa21=0.0, speeds=speeds[1:])

    def test_coefficients_of_another_grid_rejected(self):
        # the compiled march would read past the coarse coefficient arrays
        def benchmark(J):
            return models.build_linear_benchmark(J=J, cfl=0.75, T=1.0, mu=0.575, xi=0.125,
                                                 kappa12=0.5, kappa21=0.5)
        coarse = benchmark(40).coefficients
        with pytest.raises(ValueError, match="sampled on J=40 cells, the grid has J=400"):
            replace(benchmark(400), coefficients=coarse)

    def test_rejects_bad_speeds(self):
        with pytest.raises(ValueError):
            models.build_linear_benchmark(J=16, cfl=1.0, T=1.0, mu=0.5, xi=0.125,
                                          kappa12=0.0, kappa21=0.0,
                                          speeds=(1.0, 2.0))


class TestSaintVenant:
    def test_characteristic_speeds(self):
        sc = models.saint_venant_scenario(J=32)
        assert sc.coefficients.lam[0, 0] == pytest.approx(7.4294, abs=5e-5)
        assert sc.coefficients.lam[0, 1] == pytest.approx(-1.4294, abs=5e-5)
        # constant equilibrium: lam1 - lam2 = 2 sqrt(g H*)
        diff = sc.coefficients.lam[:, 0] - sc.coefficients.lam[:, 1]
        assert np.allclose(diff, 2 * math.sqrt(9.81 * 2.0), rtol=1e-14)

    def test_initial_transform_values(self):
        sc = models.saint_venant_scenario(J=200)
        xs = sc.grid.centers[1:-1]
        w1 = sc.initial[:, 0]
        w2 = sc.initial[:, 1]
        assert np.allclose(w1, -1.8926 + 4 * np.sin(np.pi * xs), atol=5e-5)
        assert np.allclose(w2, -4.1074 + 4 * np.sin(np.pi * xs), atol=5e-5)

    def test_physical_gain_map(self):
        k12, k21 = models.saint_venant_kappa(1.5, 2.0, models.SaintVenantParams())
        s0 = 1.5 * math.sqrt(2.0 / 9.81)
        sl = 2.0 * math.sqrt(2.0 / 9.81)
        assert k12 == pytest.approx((s0 - 1) / (1 + s0), rel=1e-14)
        assert k21 == pytest.approx((sl - 1) / (1 + sl), rel=1e-14)
        coeffs = models.saint_venant_scenario(J=16, kappa=(k12, k21)).coefficients
        assert coeffs.K[0, 1] == pytest.approx(k12)
        assert coeffs.K[1, 0] == pytest.approx(k21)
        assert coeffs.M[0] == pytest.approx(1 - k12)
        assert coeffs.M[1] == pytest.approx(1 - k21)

    def test_friction_terms_match_the_source_formula(self):
        # the finite form g Cf (v/h -+ v^2/(2hc)) of g Cf v^2/(2h) (2/v -+ 1/c)
        g, Cf, Sb, h, v = 9.81, 0.1, 0.0459, 2.0, 3.0
        c = math.sqrt(g * h)
        lam1, lam2 = v + c, v - c
        imbalance = (Sb * h - Cf * v * v) * g / h
        fric = g * Cf * v * v / (2.0 * h)
        lo, hi = 2.0 / v - 1.0 / c, 2.0 / v + 1.0 / c
        formula = np.array([
            [0.75 * imbalance / lam1 + fric * lo, 0.25 * imbalance / lam1 + fric * hi],
            [0.25 * imbalance / lam2 + fric * lo, 0.75 * imbalance / lam2 + fric * hi],
        ])
        gamma = models.saint_venant_scenario(J=8, gamma_override=None).coefficients.pi[0]
        np.testing.assert_allclose(gamma, formula, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("override", [None, ((0.0992, 0.2008), (0.0992, 0.2008))])
    def test_still_water_builds(self, override):
        params = models.SaintVenantParams(Vstar=0.0)
        sc = models.saint_venant_scenario(J=8, params=params, gamma_override=override)
        assert np.all(np.isfinite(sc.coefficients.pi))

    def test_override_disagreement_is_flagged(self):
        sc = models.saint_venant_scenario(J=16)
        assert any("override" in note for note in sc.notes)
        # without override the formula values are used untouched
        sc = models.saint_venant_scenario(J=16, gamma_override=None, kappa=(0.5, 0.5))
        assert sc.notes == []
        g, H, V = 9.81, 2.0, 3.0
        lam1 = V + math.sqrt(g * H)
        imbalance = (0.0459 * H - 0.1 * V * V) * g / H
        fric = g * 0.1 * V * V / (2 * H)
        expected_g11 = 0.75 * imbalance / lam1 + fric * (2 / V - 1 / math.sqrt(g * H))
        assert sc.coefficients.pi[0, 0, 0] == pytest.approx(expected_g11, rel=1e-12)

    def test_rejects_supercritical_equilibrium(self):
        params = models.SaintVenantParams(Hstar=0.5, Vstar=3.0)  # V^2 > g H
        with pytest.raises(ValueError, match="sub-critical"):
            models.saint_venant_scenario(J=8, params=params, kappa=(0.1, 0.1))


class TestEuler:
    def test_overflowing_equilibrium_constant_named(self):
        with pytest.raises(ValueError, match=r"rho0 = 1e\+308 and q_star = 0\.2"):
            models.EulerParams(rho0=1e308).rho_star(np.zeros(3))

    @pytest.mark.parametrize("params", [dict(a=0.0, q_star=0.0), dict(rho0=0.0, q_star=0.0),
                                        dict(rho0=-3.0), dict(a=1e-320, q_star=0.0)])
    def test_sound_speed_and_density_positive(self, params):
        # a division by zero, 0/0 speeds, a density sign lost in c = (a rho0/q*)^2
        with pytest.raises(ValueError, match="a and rho0 must be positive"):
            models.euler_scenario(J=20, params=models.EulerParams(**params))

    def test_equilibrium_density(self):
        p = models.EulerParams()
        assert p.rho_star(0.0) == pytest.approx(3.0, rel=1e-12)
        assert p.rho_star(1.0) < 3.0  # friction drains density downstream

    def test_density_derivative_matches_flow_ode(self):
        # d ln rho / dx = 1 / (2 (1 + W)) with W = -(a rho / q)^2
        p = models.EulerParams()
        for x in (0.0, 0.37, 0.9):
            rho = p.rho_star(x)
            W = -(p.a * rho / p.q_star) ** 2
            h = 1e-6
            num = (p.rho_star(x + h) - p.rho_star(x - h)) / (2 * h)
            assert num == pytest.approx(rho / (2 * (1 + W)), rel=1e-6)

    @pytest.mark.parametrize("J", [0, -3])
    def test_too_few_cells_named(self, J):
        # the library entry points, which no scenario-file check guards
        spec = load_scenario(str(ROOT / "scenarios" / "isothermal_euler.json"))
        for build in (models.euler_scenario, spec.build):
            with pytest.raises(ValueError, match=r"^J must be an integer >= 2"):
                build(J=J)

    def test_speeds_at_left_end(self):
        p = models.EulerParams()
        assert p.q_star / p.rho_star(0.0) + p.a == pytest.approx(0.2 / 3.0 + 1.0, rel=1e-12)
        assert p.q_star / p.rho_star(0.0) - p.a == pytest.approx(0.2 / 3.0 - 1.0, rel=1e-12)
        sc = models.euler_scenario(J=32)
        lam = sc.coefficients.lam
        # sampled at the first cell center, a grid spacing away from x = 0
        assert lam[1, 0] == pytest.approx(0.2 / 3.0 + 1.0, abs=1e-4)
        # lam1 - lam2 = 2a at every sample
        assert np.allclose(lam[:, 0] - lam[:, 1], 2.0, rtol=1e-13)

    def test_arrays_match_a_per_cell_loop(self):
        # the pipe-flow speeds and sources from per-center scalar evaluations
        # of rho*; the dx/10 centered difference magnifies last-bit
        # differences of exp and log by about l/h, hence the source tolerance
        J, p = 64, models.EulerParams()
        sc = models.euler_scenario(J=J)
        a, fD, q = p.a, p.f_over_D, p.q_star
        h = sc.grid.dx / 10.0
        lam1 = lambda x: q / float(p.rho_star(x)) + a
        lam2 = lambda x: q / float(p.rho_star(x)) - a
        lam = np.array([[lam1(x), lam2(x)] for x in sc.grid.centers.tolist()])
        assert np.allclose(sc.coefficients.lam, lam, rtol=1e-15, atol=0.0)
        pi = []
        for x in sc.grid.centers[1:-1].tolist():
            r, l1, l2 = float(p.rho_star(x)), lam1(x), lam2(x)
            dl1 = (lam1(x + h) - lam1(x - h)) / (2.0 * h)
            dl2 = (lam2(x + h) - lam2(x - h)) / (2.0 * h)
            drift = l2 * dl1 + l1 * dl2 + fD * q * q / (2.0 * r * r)
            mixing = 2.0 * q / (r * r) - fD * q / r
            half = 1.0 / (2.0 * a)
            pi.append([[-half * drift - half * l1 * mixing + half * dl2,
                        half * drift + half * l2 * mixing - half * dl2],
                       [-half * drift - half * l1 * mixing + half * l1 * dl1,
                        half * drift + half * l1 * mixing - half * l2 * dl1]])
        pi = np.array(pi)
        assert np.max(np.abs(sc.coefficients.pi - pi)) <= 1e-12 * np.max(np.abs(pi))

    def test_source_sign_pattern(self):
        sc = models.euler_scenario(J=64)
        gam = sc.coefficients.pi
        assert np.all(gam[:, 0, 0] > 0)
        assert np.all(gam[:, 0, 1] > 0)
        assert np.all(gam[:, 1, 0] > 0)
        assert np.all(gam[:, 1, 1] < 0)

    def test_zero_flux_limit_kills_source(self):
        p = models.EulerParams(q_star=0.0)
        coeffs = models.euler_scenario(J=16, T=1.0, params=p).coefficients
        assert np.allclose(coeffs.pi, 0.0, atol=1e-14)
        assert np.allclose(coeffs.lam[:, 0], 1.0)
        assert np.allclose(coeffs.lam[:, 1], -1.0)

    def test_initial_condition(self):
        sc = models.euler_scenario(J=64)
        xs = sc.grid.centers[1:-1]
        assert np.allclose(sc.initial[:, 0], np.cos(2 * np.pi * xs), rtol=1e-14)
        assert np.allclose(sc.initial[:, 1], np.cos(2 * np.pi * xs), rtol=1e-14)


def test_lambert_w_used_by_density_is_branch_minus_one():
    # spot check the wiring: the density formula inverts to the W value
    p = models.EulerParams()
    x = 0.5
    rho = p.rho_star(x)
    w = -(p.a * rho / p.q_star) ** 2
    c = (p.a * p.rho0 / p.q_star) ** 2
    z = -c * math.exp(x - c)
    assert w == pytest.approx(lambert_w_minus1(z), rel=1e-12)
    assert w * math.exp(w) == pytest.approx(z, rel=1e-10)


@pytest.mark.parametrize("builder, shipped", [
    (models.build_linear_benchmark, "linear_benchmark"),
    (models.saint_venant_scenario, "saint_venant"),
    (models.euler_scenario, "isothermal_euler"),
])
def test_builder_defaults_are_the_shipped_file(builder, shipped):
    # one definition of each shipped experiment: the builder's defaults
    built = builder()
    filed = load_scenario(str(ROOT / "scenarios" / f"{shipped}.json")).build()
    c, fc, w, fw = built.coefficients, filed.coefficients, built.weights, filed.weights
    t = filed.grid.times()
    assert (built.grid, built.xi, w.mu, built.name) == (filed.grid, filed.xi, fw.mu, filed.name)
    for mine, theirs in zip((c.lam, c.pi, c.K, c.M, w.values, built.initial, c.b(t)),
                            (fc.lam, fc.pi, fc.K, fc.M, fw.values, filed.initial, fc.b(t))):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.name)
def test_building_a_file_logs_nothing(path, caplog):
    # a scenario's notes reach its certificate; only hypiss.cli writes to the terminal
    with caplog.at_level(logging.WARNING, logger="hypiss"):
        notes = load_scenario(str(path)).build(J=50).notes
    assert caplog.records == []
    assert [note.startswith("source override differs") for note in notes] == \
        ([True] if path.name == "saint_venant.json" else [])
