import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypiss import certifier
from hypiss.cli import main
from hypiss.scenario import ScenarioError, ScenarioSpec, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def benchmark_raw():
    return json.loads((SCENARIOS / "linear_benchmark.json").read_text())


class TestLoading:
    def test_shipped_benchmark_builds_and_certifies(self):
        spec = load_scenario(str(SCENARIOS / "linear_benchmark.json"))
        sc = spec.build(J=64)
        assert sc.grid.J == 64
        assert sc.coefficients.K[0, 1] == 0.5
        report = certifier.certify(sc)
        assert report.overall

    def test_shipped_saint_venant_builds(self):
        spec = load_scenario(str(SCENARIOS / "saint_venant.json"))
        sc = spec.build(J=32)
        assert sc.name == "saint_venant"
        assert sc.coefficients.lam[0, 0] == pytest.approx(7.4294, abs=5e-5)
        assert np.all(sc.coefficients.pi == np.array([[0.0992, 0.2008],
                                                      [0.0992, 0.2008]]))

    def test_saint_venant_kappa_override_block(self):
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["model"]["kappa_override"] = [0.25, -0.3]
        del raw["boundary"]["kappa12"]
        del raw["boundary"]["kappa21"]
        sc = ScenarioSpec(raw=raw).build(J=16)
        assert sc.coefficients.K[0, 1] == 0.25
        assert sc.coefficients.K[1, 0] == -0.3
        assert sc.coefficients.M[0] == pytest.approx(0.75)
        assert sc.coefficients.M[1] == pytest.approx(1.3)

    def test_saint_venant_physical_gains(self):
        # boundary.k0/kl map to the feedback gains when the file gives no kappa
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        del raw["boundary"]["kappa12"]
        del raw["boundary"]["kappa21"]
        raw["boundary"].update(k0=1.5, kl=2.0)
        sc = ScenarioSpec(raw=raw).build(J=16)
        assert sc.coefficients.K[0, 1] == pytest.approx(-0.1924, abs=5e-5)
        assert sc.coefficients.K[1, 0] == pytest.approx(-0.0509, abs=5e-5)
        assert sc.coefficients.M == pytest.approx([1.1924, 1.0509], abs=5e-5)

    def test_saint_venant_half_gain_pair_rejected(self):
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        del raw["boundary"]["kappa21"]
        with pytest.raises(ScenarioError, match="boundary.kappa21"):
            ScenarioSpec(raw=raw).build(J=16)

    def test_shipped_euler_builds(self):
        spec = load_scenario(str(SCENARIOS / "isothermal_euler.json"))
        sc = spec.build(J=24)
        assert sc.name == "isothermal_euler"
        assert not certifier.certify(sc).overall

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("nope/missing.json")

    def test_json_syntax_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {,}\n}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(str(bad))

    def test_missing_fields_are_named(self):
        raw = benchmark_raw()
        del raw["grid"]["T"]
        with pytest.raises(ScenarioError, match="grid.T"):
            ScenarioSpec(raw=raw).build()
        raw = benchmark_raw()
        del raw["boundary"]["kappa12"]
        with pytest.raises(ScenarioError, match="boundary.kappa12"):
            ScenarioSpec(raw=raw).build()
        raw = benchmark_raw()
        del raw["xi"]
        with pytest.raises(ScenarioError, match="'xi'"):
            ScenarioSpec(raw=raw)

    def test_unknown_model_rejected(self):
        raw = benchmark_raw()
        raw["model"]["name"] = "heat_equation"
        with pytest.raises(ScenarioError, match="unknown model"):
            ScenarioSpec(raw=raw)

    def test_unknown_disturbance_rejected(self):
        raw = benchmark_raw()
        raw["boundary"]["disturbance"] = {"kind": "chirp"}
        with pytest.raises(ScenarioError, match="disturbance"):
            ScenarioSpec(raw=raw).build(J=8)

    def test_non_numeric_field_rejected(self):
        raw = benchmark_raw()
        raw["grid"]["cfl"] = "fast"
        with pytest.raises(ScenarioError, match="grid.cfl"):
            ScenarioSpec(raw=raw).build()


def _set(raw, path, value):
    *sections, key = path.split(".")
    for section in sections:
        raw = raw[section]
    raw[key] = value


@pytest.mark.parametrize("shipped,path,value,field", [
    ("linear_benchmark", "grid.T", math.inf, "grid.T"),
    ("linear_benchmark", "grid.l", math.nan, "grid.l"),
    ("linear_benchmark", "grid.cfl", -math.inf, "grid.cfl"),
    ("linear_benchmark", "xi", math.nan, "'xi'"),
    ("linear_benchmark", "weights.mu", math.inf, "weights.mu"),
    ("linear_benchmark", "boundary.kappa21", math.nan, "boundary.kappa21"),
    ("linear_benchmark", "model.speeds", [1.0, -math.inf], "model.speeds"),
    ("linear_benchmark", "model.source", [[0.3, math.nan], [-0.1, 0.3]], "model.source"),
    ("linear_benchmark", "model.ic.values", [math.nan, 0.5], "model.ic.values"),
    ("linear_benchmark", "boundary.M", [1.0, math.inf], "boundary.M"),
    ("linear_benchmark", "weights.p_plus", [math.nan], "weights.p_plus"),
    ("linear_benchmark", "weights.p_minus", [math.inf], "weights.p_minus"),
    ("linear_benchmark", "boundary.disturbance.amplitude", math.nan,
     "boundary.disturbance.amplitude"),
    ("linear_benchmark", "weights.table", [[1.0, math.nan]] * 18, "weights.table"),
    ("saint_venant", "model.Hstar", math.inf, "model.Hstar"),
    ("saint_venant", "model.ic.V0.amplitude", [math.nan], "model.ic.V0.amplitude"),
    ("isothermal_euler", "model.rho0", math.nan, "model.rho0"),
])
def test_non_finite_numbers_rejected_with_field(tmp_path, capsys, shipped, path, value, field):
    _certify_fails_naming(tmp_path, capsys, shipped, path, value, field)


@pytest.mark.parametrize("shipped,path,value,field", [
    ("linear_benchmark", "grid", 5, "'grid'"),
    ("linear_benchmark", "grid", [1], "'grid'"),
    ("linear_benchmark", "weights", 3, "'weights'"),
    ("linear_benchmark", "boundary", "x", "'boundary'"),
    ("saint_venant", "model.ic", [2.5, 1.0], "'model.ic'"),
    ("linear_benchmark", "model.speeds", [1.0, -1.0, 2.0], "model.speeds"),
    ("linear_benchmark", "model.source", [[0.3, -0.1]], "model.source"),
    ("saint_venant", "model.gamma_override", [[1, 2]], "model.gamma_override"),
    ("linear_benchmark", "boundary.M", [1.0, 1.0, 1.0], "boundary.M"),
    ("linear_benchmark", "weights.p_minus", [1, 2], "weights.p_minus"),
    ("saint_venant", "weights.p_plus", [0.0992, 0.5], "weights.p_plus"),
    ("linear_benchmark", "model.ic.values", [1.0], "model.ic.values"),
    ("linear_benchmark", "boundary.disturbance", {"kind": "constant", "values": [0.1, 0.2, 0.3]},
     "boundary.disturbance.values"),
    ("linear_benchmark", "boundary.disturbance.pattern", [1.0, -1.0, 1.0],
     "boundary.disturbance.pattern"),
    ("linear_benchmark", "boundary.disturbance",
     {"kind": "table", "times": [0.0, 1.0], "values": [[0.1, 0.2, 0.3]] * 2},
     "boundary.disturbance.values"),
    # misspelt or misplaced keys
    ("isothermal_euler", "boundary.kapa21", 0.3, "'boundary.kapa21'"),
    ("linear_benchmark", "Xi", 0.2, "'Xi'"),
    ("linear_benchmark", "grid.dt", 0.1, "'grid.dt'"),
    ("linear_benchmark", "model.ic.offset", [0.0, 0.0], "'model.ic.offset'"),
    ("isothermal_euler", "model.ic", {"kind": "cos", "amplitude": [1.0, 1.0]}, "'model.ic'"),
    ("saint_venant", "model.ic.V0.ampltude", [4.0], "'model.ic.V0.ampltude'"),
    ("saint_venant", "boundary.M", [1.0, 1.0], "'boundary.M'"),
    ("saint_venant", "boundary.disturbance.cutof", 5.0, "'boundary.disturbance.cutof'"),
])
def test_bad_fields_rejected_with_name(tmp_path, capsys, shipped, path, value, field):
    _certify_fails_naming(tmp_path, capsys, shipped, path, value, field)


def test_shipped_and_benchmark_files_hold_only_known_keys(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "workloads", SCENARIOS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    files = list(SCENARIOS.glob("*.json"))
    for workload in workloads.WORKLOADS:
        for seed in (0, 1):
            dest = tmp_path / f"{workload}-{seed}"
            files += workloads.write_inputs(workload, seed, SCENARIOS, dest).values()
    for path in files:
        load_scenario(str(path)).params()


def _certify_fails_naming(tmp_path, capsys, shipped, path, value, field):
    raw = json.loads((SCENARIOS / f"{shipped}.json").read_text())
    raw["grid"].update(J=16, T=0.5)
    _set(raw, path, value)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
    assert main(["certify", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and field in err


class TestBuildOptions:
    def test_resolution_override(self):
        spec = ScenarioSpec(raw=benchmark_raw())
        for J in (16, 48):
            sc = spec.build(J=J)
            assert sc.grid.J == J
            assert sc.initial.shape == (J, 2)
        sc = spec.build(J=16, cfl=1.0)
        assert sc.grid.dt == pytest.approx(sc.grid.dx)

    def test_explicit_weight_table(self):
        raw = benchmark_raw()
        J = 8
        raw["grid"]["J"] = J
        raw["weights"] = {"table": [[1.0, 2.0]] * (J + 2)}
        sc = ScenarioSpec(raw=raw).build()
        assert not sc.weights.is_implicit
        assert np.all(sc.weights.values == np.tile([1.0, 2.0], (J + 2, 1)))

    def test_wrong_table_shape_rejected(self):
        raw = benchmark_raw()
        raw["weights"] = {"table": [[1.0, 2.0]] * 4}
        with pytest.raises(ScenarioError, match="weights.table"):
            ScenarioSpec(raw=raw).build(J=8)

    def test_sine_initial_condition(self):
        raw = benchmark_raw()
        raw["model"]["ic"] = {"kind": "sin", "amplitude": [1.0, 0.5],
                              "offset": [0.1, -0.1], "frequency": 2.0}
        sc = ScenarioSpec(raw=raw).build(J=16)
        xs = sc.grid.centers[1:-1]
        assert np.allclose(sc.initial[:, 0], 0.1 + np.sin(2 * np.pi * xs), rtol=1e-12)
        assert np.allclose(sc.initial[:, 1], -0.1 + 0.5 * np.sin(2 * np.pi * xs),
                           rtol=1e-12)

    def test_build_is_deterministic(self):
        spec = ScenarioSpec(raw=benchmark_raw())
        a = spec.build(J=32)
        b = spec.build(J=32)
        assert np.array_equal(a.initial, b.initial)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(a.coefficients.lam, b.coefficients.lam)
