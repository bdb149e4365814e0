import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hypiss import certifier, reports
from hypiss.cli import main
from hypiss.scenario import ScenarioError, ScenarioSpec, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def benchmark_raw():
    return json.loads((SCENARIOS / "linear_benchmark.json").read_text())


# scenarios/linear_benchmark.json, transcribed to TOML
BENCHMARK_TOML = """\
xi = 0.125

[grid]
l = 1.0
J = 1600
T = 10.0
cfl = 0.75

[model]
name = "linear2x2"
speeds = [1.0, -1.0]
source = [[0.3, -0.1], [-0.1, 0.3]]
ic = {kind = "constant", values = [-0.5, 0.5]}

[weights]
p_plus = [1.0]
p_minus = [1.0]
mu = 0.575

[boundary]
kappa12 = 0.5
kappa21 = 0.5
M = [1.0, 1.0]
disturbance = {kind = "pulsed_sine", amplitude = 0.01, cutoff = 5.0}
"""


# ROADMAP item 6: a disturbance that the Saint-Venant and Euler builders drop
DISTURBANCE_DROPPED = (
    "the Saint-Venant and Euler builders take no disturbance, so the parser drops "
    "boundary.disturbance and they run the default pulse; passing it through changes "
    "sv-trajectory's by-seed final_L in perfbench/golden.json, so it waits for a "
    "benchmark-defining change")
PROBED_FILES = [SCENARIOS / f"{name}.json"
                for name in ("linear_benchmark", "saint_venant", "isothermal_euler")]
PROBED_FILES += sorted((SCENARIOS.parent / "tests" / "scenarios").glob("*.json"))
DEAD_LEAVES = {("saint_venant", "boundary.disturbance.amplitude"),
               ("saint_venant", "boundary.disturbance.cutoff"),
               ("isothermal_euler", "boundary.disturbance.amplitude"),
               ("isothermal_euler", "boundary.disturbance.cutoff"),
               ("saint_venant_physical_gains", "boundary.disturbance.values.0"),
               ("saint_venant_physical_gains", "boundary.disturbance.values.1")}


def _numeric_leaves(node, path=()):
    """(path, container, key) of every number in a parsed scenario file."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, str(key)))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield ".".join((*path, str(key))), node, key


def _leaf_params():
    for path in PROBED_FILES:
        for leaf, _, _ in _numeric_leaves(json.loads(path.read_text())):
            if leaf != "grid.J":
                marks = ([pytest.mark.xfail(strict=True, reason=DISTURBANCE_DROPPED)]
                         if (path.stem, leaf) in DEAD_LEAVES else [])
                yield pytest.param(path, leaf, marks=marks, id=f"{path.stem}:{leaf}")


def _built(raw):
    """What a build at J=50 makes of ``raw``: every array, at every level."""
    sc = ScenarioSpec(raw=raw).build(J=50)
    c, w = sc.coefficients, sc.weights
    return [sc.grid, c.lam, c.pi, c.K, c.M, c.b(sc.grid.times()), w.values, w.mu,
            sc.initial, sc.xi, sc.notes]


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
        # boundary.kappa12/kappa21 override the default gains (0.5, 1.5 exp(-mu))
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["boundary"].update(kappa12=0.25, kappa21=-0.3)
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

    @pytest.mark.parametrize("key", ["k0", "kl"])
    def test_saint_venant_gain_at_the_pole_rejected(self, tmp_path, capsys, key):
        # k = -sqrt(g/H*) makes 1 + k sqrt(H*/g) zero, so it maps to no kappa
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["grid"]["J"] = 50
        del raw["boundary"]["kappa12"]
        del raw["boundary"]["kappa21"]
        raw["boundary"].update(k0=2.0, kl=2.0)
        raw["boundary"][key] = -math.sqrt(9.81 / 2.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["certify", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: boundary.{key} = ")
        assert not (tmp_path / "o").exists()

    def test_saint_venant_constant_velocity(self):
        # model.ic.V0 as a number is the constant velocity of every cell
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["model"]["ic"]["V0"] = 4.0
        sc = ScenarioSpec(raw=raw).build(J=16)
        dh = (2.5 - 2.0) * math.sqrt(9.81 / 2.0)
        assert np.array_equal(sc.initial, np.tile([4.0 - 3.0 + dh, 4.0 - 3.0 - dh], (16, 1)))

    @pytest.mark.parametrize("override", [True, False])
    def test_saint_venant_still_water_certifies(self, tmp_path, capsys, override):
        # V* = 0 is a sub-critical equilibrium, with or without the source override
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["grid"]["J"] = 50
        raw["model"]["Vstar"] = 0.0
        if not override:
            del raw["model"]["gamma_override"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert main(["certify", "--scenario", str(path), "--out", str(tmp_path / "o")]) in (0, 1)
        assert capsys.readouterr().out.startswith("certificate: ")

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

    @pytest.mark.xfail(strict=True, reason=DISTURBANCE_DROPPED)
    @pytest.mark.parametrize("shipped", ["saint_venant", "isothermal_euler"])
    def test_disturbance_reaches_the_coefficients(self, shipped):
        raw = json.loads((SCENARIOS / f"{shipped}.json").read_text())
        raw["boundary"]["disturbance"] = {"kind": "constant", "values": [5.0, -5.0]}
        b = ScenarioSpec(raw=raw).build(J=50).coefficients.b
        assert np.array_equal(b(1.0), [5.0, -5.0])

    @pytest.mark.parametrize("path,leaf", _leaf_params())
    def test_every_number_reaches_the_build(self, path, leaf):
        # a field that changes nothing built (or fails the build) is read by nothing;
        # the step is 3.7 % plus 3.7e-5, as a 1 % step maps -0.1 + 1e-3 back to -0.1
        raw = json.loads(path.read_text())
        before = _built(raw)
        (_, node, key), = [hit for hit in _numeric_leaves(raw) if hit[0] == leaf]
        node[key] += 0.037 * (abs(node[key]) + 1e-3)
        try:
            after = _built(raw)
        except ValueError:      # a ScenarioError is a ValueError
            return
        assert not all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                       for x, y in zip(before, after))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("nope/missing.json")

    def test_unreadable_path_named_with_exit_2(self, tmp_path, capsys):
        with pytest.raises(ScenarioError, match=re.escape(f"{tmp_path}: ")):
            load_scenario(str(tmp_path))
        code = main(["certify", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"scenario error: {tmp_path}: " in capsys.readouterr().err

    def test_toml_benchmark_is_the_reference_benchmark(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "benchmark.toml"
        path.write_text(BENCHMARK_TOML)
        spec = load_scenario(str(path))
        assert spec.raw == benchmark_raw()
        assert reports.reference_values(spec.build(J=200)) is not None

    def test_toml_syntax_error_names_the_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "benchmark.toml"
        path.write_text(BENCHMARK_TOML.replace("[grid]", "[grid"))
        with pytest.raises(ScenarioError, match=re.escape(f"{path}: ")):
            load_scenario(str(path))

    def test_json_syntax_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {,}\n}')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(str(bad))
        bad.write_text("[1.0]")
        with pytest.raises(ScenarioError, match="top level must be an object"):
            load_scenario(str(bad))
        assert main(["certify", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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
    # Saint-Venant and Euler disturbances are checked though not used yet
    ("saint_venant", "boundary.disturbance.kind", "chirp", "'boundary.disturbance'"),
    ("isothermal_euler", "boundary.disturbance.amplitude", "big",
     "boundary.disturbance.amplitude"),
    ("isothermal_euler", "boundary.disturbance.pattern", [1.0, -1.0, 1.0],
     "boundary.disturbance.pattern"),
    # a gain source that another one overrides
    ("saint_venant", "model.kappa_override", [0.25, -0.3], "'model.kappa_override'"),
    ("saint_venant", "boundary.k0", 1.5, "'boundary.k0'"),
    ("linear_benchmark", "grid.J", 2.5, "'grid.J'"),
    ("isothermal_euler", "grid.J", 0, "'grid.J'"),
    ("isothermal_euler", "grid.J", -3, "'grid.J'"),
    ("linear_benchmark", "boundary.disturbance",
     {"kind": "table", "times": [0.0, 1.0, 1.0], "values": [[0.1, 0.2]] * 3},
     "'boundary.disturbance.times'"),
    ("linear_benchmark", "boundary.disturbance",
     {"kind": "table", "times": [[0.0, 1.0]], "values": [[0.1, 0.2]]},
     "'boundary.disturbance.times'"),
    ("linear_benchmark", "boundary.disturbance",
     {"kind": "table", "times": [[[0.0, 1.0]]], "values": [[0.1, 0.2]] * 2},
     "'boundary.disturbance.times'"),
    # a constant initial condition is an object, not a bare list
    ("linear_benchmark", "model.ic", [-0.5, 0.5], "'model.ic'"),
    # every element of an array is a JSON number, and every number fits a double
    ("linear_benchmark", "boundary.M", ["1.0", True], "'boundary.M'"),
    ("linear_benchmark", "boundary.M", [1.0, True], "'boundary.M'"),
    pytest.param("linear_benchmark", "boundary.kappa12", 10**400,
                 "'boundary.kappa12' must be finite", id="kappa12-400-digits"),
    ("linear_benchmark", "model.name", ["linear2x2"], "'model.name'"),
    ("linear_benchmark", "model.name", {"linear2x2": 1}, "'model.name'"),
])
def test_bad_fields_rejected_with_name(tmp_path, capsys, shipped, path, value, field):
    _certify_fails_naming(tmp_path, capsys, shipped, path, value, field)


def _perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, which is not a package;
    registered as ``perfbench_<name>``, so its dataclasses can find it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", SCENARIOS.parent / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_and_benchmark_files_hold_only_known_keys(tmp_path):
    workloads = _perfbench("workloads")
    files = list(SCENARIOS.glob("*.json"))
    for workload in workloads.WORKLOADS:
        for seed in (0, 1):
            dest = tmp_path / f"{workload}-{seed}"
            files += workloads.write_inputs(workload, seed, SCENARIOS, dest).values()
    for path in files:
        load_scenario(str(path)).params()


def test_benchmark_tracer_finds_every_function_it_wraps():
    # a renamed target would silently read zero in its per-layer metrics
    import hypiss.cli
    spans = _perfbench("spans")
    with spans.installed(spans.Recorder(), hypiss) as missing:
        # except the deleted sampled continuous check, whose span and the
        # certifier.continuous_s metric (now 0) leave with ROADMAP item 6
        assert missing == ["certifier.check_continuous_sampled"]


@pytest.mark.parametrize("shipped,path,value,fields", [
    ("linear_benchmark", "grid.T", 1e308, ("grid.T", "grid.l", "grid.cfl")),
    ("linear_benchmark", "grid.l", 1e-320, ("grid.T", "grid.l", "grid.cfl")),
    ("linear_benchmark", "grid.cfl", 1e-320, ("grid.T", "grid.l", "grid.cfl")),
    ("isothermal_euler", "model.rho0", 1e308, ("rho0", "q_star")),
    ("isothermal_euler", "model.rho0", -3.0, ("a and rho0 must be positive",)),
    ("saint_venant", "model.ic.V0.frequency", 1e308, ("initial data is not finite",)),
    ("linear_benchmark", "model.ic", {"kind": "sin", "amplitude": [1.0, 1.0],
                                      "frequency": 1e308}, ("initial data is not finite",)),
    ("isothermal_euler", "model.q_star", 5.0, ("rho0", "q_star", "branch point")),
    ("isothermal_euler", "model.rho0", 5.4, ("rho0", "q_star", "too close to 0")),
])
def test_unbuildable_values_fail_with_one_error_line(tmp_path, capsys, shipped, path, value,
                                                     fields):
    # a value that loads but cannot be built: no traceback and no numpy warning first
    _certify_fails_naming(tmp_path, capsys, shipped, path, value, *fields, prefix="error:")


def _certify_fails_naming(tmp_path, capsys, shipped, path, value, *fields,
                          prefix="scenario error:"):
    raw = json.loads((SCENARIOS / f"{shipped}.json").read_text())
    raw["grid"].update(J=16, T=0.5)
    _set(raw, path, value)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
    assert main(["certify", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert all(field in err for field in fields)


class TestBuildOptions:
    def test_resolution_override(self):
        spec = ScenarioSpec(raw=benchmark_raw())
        for J in (16, 48):
            sc = spec.build(J=J)
            assert sc.grid.J == J
            assert sc.initial.shape == (J, 2)
        sc = spec.build(J=16, cfl=1.0)
        assert sc.grid.dt == pytest.approx(sc.grid.dx)
        raw = benchmark_raw()
        raw["grid"]["J"] = 16.0
        assert ScenarioSpec(raw=raw).build().grid.J == 16

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

    def test_table_column_count_checked_at_load(self):
        raw = benchmark_raw()
        raw["weights"] = {"table": [[1.0, 2.0, 3.0]] * 10}
        with pytest.raises(ScenarioError, match=r"weights.table.*got \(10, 3\)"):
            ScenarioSpec(raw=raw)

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
