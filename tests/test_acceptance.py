"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them)."""

import math

import numpy as np
import pytest

from hypiss import certifier, core, lyapunov, solver
from hypiss.reports import REFERENCE_ETA, REFERENCE_GAP_NORMS
from hypiss.models import Scenario
from hypiss.cli import main as cli_main
from hypiss.lambertw import lambert_w_minus1
from hypiss.models import build_linear_benchmark
from tests.conftest import BENCHMARK_J, gronwall_closed_form, run_scenario

def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, detail


def test_01_decay_rate_reproduction(benchmark_traces):
    worst = 0.0
    for J in BENCHMARK_J:
        eta_a = benchmark_traces[(0.75, J)][0].eta
        eta_b = benchmark_traces[(1.0, J)][0].eta
        worst = max(worst, abs(eta_a - REFERENCE_ETA[J]), abs(eta_b - REFERENCE_ETA[J]))
    report_line(1, worst <= 5e-5,
                f"certified decay rates match the reference table, "
                f"max |dev| = {worst:.2e} (tol 5e-5)")


def test_02_gain_bound_and_disturbance_gain(benchmark_traces):
    report = benchmark_traces[(0.75, 1600)][0]
    d12 = abs(report.c3.kappa12_bound - 0.9428)
    d21 = abs(report.c3.kappa21_bound - 0.5305)
    dnu = abs(report.nu - 1.7768)
    ok = d12 <= 1e-4 and d21 <= 1e-4 and dnu <= 1e-4
    report_line(2, ok,
                f"|kappa12| bound dev {d12:.2e}, |kappa21| bound dev {d21:.2e}, "
                f"nu dev {dnu:.2e} (tol 1e-4)")


def test_03_envelope_gap_norm_tables(benchmark_traces):
    worst = 0.0
    for cfl in (0.75, 1.0):
        sups, l2s = [], []
        for J in BENCHMARK_J:
            trace = benchmark_traces[(cfl, J)][1]
            sup, l2 = lyapunov.envelope_gap_norms(trace)
            ref_sup, ref_l2 = REFERENCE_GAP_NORMS[(cfl, J)]
            worst = max(worst, abs(sup - ref_sup) / ref_sup,
                        abs(l2 - ref_l2) / ref_l2)
            sups.append(sup)
            l2s.append(l2)
        assert all(a > b for a, b in zip(sups, sups[1:])), \
            f"sup gaps not strictly decreasing in J at cfl={cfl}"
        assert all(a > b for a, b in zip(l2s, l2s[1:])), \
            f"l2 gaps not strictly decreasing in J at cfl={cfl}"
    report_line(3, worst <= 0.10,
                f"gap norms within {worst:.2%} of the reference tables "
                f"(tol 10%), both norms strictly decreasing in J")


def test_04_envelope_domination_property(benchmark_traces, saint_venant_trace):
    rng = np.random.default_rng(20260809)
    checked = 0
    worst = -np.inf

    def check(trace, slack_scale):
        nonlocal checked, worst
        viol = float(np.max(trace.L - trace.envelope))
        worst = max(worst, viol / slack_scale)
        checked += 1
        assert viol <= 1e-12 * slack_scale

    for _ in range(20):
        mu = rng.uniform(0.1, 1.2)
        xi = rng.uniform(0.05, 1.5)
        cfl = float(rng.choice([0.75, 1.0]))
        b12 = math.sqrt(1.0 / (1.0 + xi))
        b21 = b12 * math.exp(-mu)
        sc = build_linear_benchmark(
            J=64, cfl=cfl, T=3.0, mu=mu, xi=xi,
            kappa12=float(rng.uniform(-0.9, 0.9)) * b12,
            kappa21=float(rng.uniform(-0.9, 0.9)) * b21,
            b=core.DisturbanceSignal.pulsed_sine(2, amplitude=float(rng.uniform(0.0, 0.05)),
                                                 cutoff=float(rng.uniform(1.0, 3.0))))
        report, trace = run_scenario(sc)
        assert report.overall, "randomized draw was expected to certify"
        check(trace, max(1.0, trace.L[0]))
    for key in ((0.75, 1600), (1.0, 200)):
        _, trace = benchmark_traces[key]
        check(trace, max(1.0, trace.L[0]))
    _, sv_trace = saint_venant_trace
    check(sv_trace, max(1.0, sv_trace.L[0]))
    report_line(4, True,
                f"L <= envelope on {checked} scenarios "
                f"(worst normalized violation {worst:.2e}, tol 1e-12)")


def test_05_saint_venant_decay(saint_venant_trace):
    report, trace = saint_venant_trace
    viol = float(np.max(trace.L - trace.envelope))
    tail = trace.L[trace.times >= 5.0]
    max_increase = float(np.max(np.diff(tail)))
    ratio = trace.L[-1] / trace.L[0]
    slack = 1e-12 * max(1.0, trace.L[0])
    ok = viol <= slack and max_increase <= slack and ratio < 1e-3
    report_line(5, ok,
                f"channel-flow run: max envelope violation {viol:.2e}, "
                f"max increase after cutoff {max_increase:.2e}, "
                f"L_final/L0 = {ratio:.2e} (< 1e-3)")


def test_06_euler_counterexample(tmp_path):
    scenario_file = str((__import__("pathlib").Path(__file__).resolve().parent.parent
                         / "scenarios" / "isothermal_euler.json"))
    code = cli_main(["certify", "--scenario", scenario_file,
                     "--out", str(tmp_path / "euler")])
    import json
    report = json.loads((tmp_path / "euler" / "certificate.json").read_text())
    ok = (code != 0 and report["c2"]["passed"] is False
          and report["first_failure"]["condition"] == "C2"
          and report["c2"]["min_eigenvalue"] < -certifier.PSD_REL_TOL)
    report_line(6, ok,
                f"pipe-flow counterexample rejected: exit code {code}, "
                f"min source eigenvalue {report['c2']['min_eigenvalue']:.3e}")


def test_07_discrete_decay_bound_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = float(np.exp(rng.uniform(-2.0, 2.0)))
        dt = rng.uniform(0.01, 0.99) / a
        z = float(rng.normal() * 2.0)
        c = float(abs(rng.normal()) * 3.0)
        n = int(rng.integers(0, 51))
        y = c
        for _ in range(n + 1):
            y = (1.0 - a * dt) * y + dt * z
        closed = gronwall_closed_form(c, a, z, dt, n)
        worst = max(worst, abs(closed - y) / max(abs(y), abs(closed), 1e-30))
    report_line(7, worst <= 1e-12,
                f"closed-form decay bound equals the direct recursion, "
                f"max rel err {worst:.2e} (tol 1e-12)")


def test_08_quadratic_identity_suite():
    rng = np.random.default_rng(8)
    worst_eq = 0.0
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        y = rng.normal(size=k)
        z = rng.normal(size=k)
        raw = rng.normal(size=(k, k))
        A = 0.5 * (raw + raw.T)  # identity needs the symmetric part only
        lhs = -2.0 * y @ A @ (y - z)
        rhs = -y @ A @ y + z @ A @ z - (y - z) @ A @ (y - z)
        worst_eq = max(worst_eq, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        F = rng.normal(size=(k, k))
        B = F.T @ F
        xi = float(np.exp(rng.uniform(-3.0, 3.0)))
        cross = 2.0 * y @ B @ z
        bound = xi * (y @ B @ y) + (z @ B @ z) / xi
        slack = 1e-12 * max(abs(cross), bound, 1.0)
        if cross > bound + slack or -cross > bound + slack:
            violations += 1
    ok = worst_eq <= 1e-12 and violations == 0
    report_line(8, ok,
                f"rearrangement identity max rel err {worst_eq:.2e} (tol 1e-12), "
                f"{violations} weighted-inequality violations")


def test_09_exact_advection():
    J, steps = 64, 100
    g = core.Grid1D(1.0, J, steps / J, 1.0, 1.0)
    assert g.N == steps
    lam = np.array([1.0, -1.0])
    coeffs = core.SystemCoefficients(k=2, m=1, lam=np.tile(lam, (J + 2, 1)),
                                     pi=np.zeros((J, 2, 2)), K=np.zeros((2, 2)),
                                     M=np.zeros(2), b=core.DisturbanceSignal.constant(np.zeros(2)))
    rng = np.random.default_rng(9)
    init = rng.uniform(-0.5, 0.5, size=(J, 2))
    weights = core.WeightField(np.ones((J + 2, 2)))
    sc = Scenario(name="advection", grid=g, coefficients=coeffs, weights=weights,
                  xi=1.0, initial=init.copy())
    history = solver.run(sc, stride=1).history
    assert [n for n, _ in history] == list(range(steps + 1)), "stride 1 skipped a level"
    expect_p = init[:, 0].copy()
    expect_m = init[:, 1].copy()
    worst = 0.0
    for n in range(steps):
        state = history[n + 1][1]
        expect_p = np.concatenate([[0.0], expect_p[:-1]])
        expect_m = np.concatenate([expect_m[1:], [0.0]])
        worst = max(worst,
                    float(np.max(np.abs(state[:, 0] - expect_p))),
                    float(np.max(np.abs(state[:, 1] - expect_m))))
    report_line(9, worst <= 1e-14,
                f"unit-Courant transport is an exact cellwise shift over "
                f"{steps} steps, max |err| = {worst:.2e} (tol 1e-14)")


def test_10_lambert_w_residuals():
    mags = np.exp(np.linspace(math.log(math.exp(-1.0) * (1.0 - 1e-9)),
                              math.log(1e-300), 100))
    worst = 0.0
    above = 0     # values off the lower branch, w > -1
    for mag in mags:
        z = -float(mag)
        w = lambert_w_minus1(z)
        above += w > -1.0
        worst = max(worst, abs(w * math.exp(w) - z) / abs(z))
    branch = abs(lambert_w_minus1(-1.0 / math.e) + 1.0)
    ok = worst <= 1e-13 and branch <= 1e-7 and above == 0
    report_line(10, ok,
                f"defining-equation residual over 100-point log sweep "
                f"{worst:.2e} (tol 1e-13), {above} values above -1; "
                f"branch-point value off by {branch:.1e}")


def test_11_per_step_iss_margin(benchmark_traces):
    # m^n = (1 - eta dt_n) L^n + dt_n nu (1 + 1/xi) |b(t^n)|^2 - L^{n+1} >= 0
    # on every step of the certified benchmark, with b the builder's
    # default pulse that the fixture's scenarios carry
    b = core.DisturbanceSignal.pulsed_sine(2)
    worst = np.inf
    for (cfl, J), (report, trace) in sorted(benchmark_traces.items()):
        assert report.overall
        dt = np.diff(trace.times)
        B = b(trace.times[:-1])
        b_sq = np.einsum("nk,nk->n", B, B)
        L = trace.L
        margin = ((1.0 - report.eta * dt) * L[:-1]
                  + dt * report.nu * (1.0 + 1.0 / report.xi) * b_sq - L[1:])
        assert np.all(margin >= -1e-12 * L[:-1]), f"negative margin at cfl={cfl}, J={J}"
        worst = min(worst, float(np.min(margin / L[:-1])))
    report_line(11, True,
                f"one-step ISS inequality holds on every step of "
                f"{len(benchmark_traces)} certified runs, min m^n/L^n = {worst:.2e}")
