"""The trace and trajectory writers: each, with and without the compiled
library, against the generic row writer ``reports._write_csv``, which
formats each value of a row tuple; and the compiled row formatter against
``reports._python_rows``, whose ``repr`` is its oracle."""

import ctypes
import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiss import certifier, load_scenario, lyapunov, reports, solver
from hypiss.core import DisturbanceSignal
from hypiss.models import build_linear_benchmark
from hypiss.scenario import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_streamed_writers_match_row_writer(tmp_path, march_backend):
    sc = build_linear_benchmark(J=12, cfl=0.75, T=1.0, mu=0.575, xi=0.125,
                                kappa12=0.5, kappa21=0.5)
    report = certifier.certify(sc)
    result = solver.run(sc, stride=5)
    with_envelope = lyapunov.build_trace(result, sc, report)
    for trace in (with_envelope, replace(with_envelope, envelope=None)):
        rows = [(n, trace.times[n], trace.L[n],
                 None if trace.envelope is None else trace.envelope[n], trace.sup_b_sq[n])
                for n in range(trace.times.size)]
        reports._write_csv(tmp_path / "rows.csv", "lyapunov-trace",
                           ("n", "t", "L", "envelope", "sup_b_sq"), rows)
        reports.write_trace_csv(tmp_path / "trace.csv", trace)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    centers = sc.grid.centers
    rows = [(n, result.times[n], j, centers[j + 1], *interior[j])
            for n, interior in result.history for j in range(interior.shape[0])]
    reports._write_csv(tmp_path / "rows.csv", "trajectory",
                       ["n", "t", "j", "x", "w1", "w2"], rows)
    reports.write_trajectory_csv(tmp_path / "trajectory.csv", result, centers)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.fixture(scope="module")
def compiled_rows():
    """The maker of the compiled library's row formatter; skipped when it
    cannot be built."""
    if solver._load() is None:
        pytest.skip("the compiled library could not be built")
    return reports._row_formatter


def formatted(make_rows, values):
    """The compiled formatter's text for each value, through one column in one call."""
    column = np.asarray(values, dtype=np.float64)
    table = np.array([[0, 0, 0, column.size]], dtype=ctypes.c_long)
    rows = make_rows([[column]], b"", None, table, np.zeros(1, dtype=np.intp))
    return [line.split(",", 1)[1] for line in bytes(rows(0, 1)).decode().splitlines()]


def edge_values():
    """Every +-2^e and the neighbours of every power of 2 and of 10; the
    smallest subnormals, whose shortest digits come from 10 times their
    significand; extreme, integral and special values."""
    powers = [2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    values = [v for p in powers for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))]
    tiny = np.arange(1, 40, dtype=np.uint64).view(np.float64).tolist()
    values += tiny + [np.finfo(float).max, np.finfo(float).tiny, 2.0 ** 53 - 1, 1e16 - 2,
                      0.0, math.nan, math.inf, 1e-4, 1e-5, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    values += list(range(-1000, 1001)) + [v / 1000 for v in range(-3000, 3001, 7)]
    values += [-v for v in values]
    bits = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]   # nan payloads, -nan
    return values + np.array(bits, dtype=np.uint64).view(np.float64).tolist()


def test_formatter_matches_repr(compiled_rows):
    rng = np.random.default_rng(20201)
    random_bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2 ** 52, 5_000, dtype=np.uint64)
    values = np.concatenate([random_bits.view(np.float64), subnormal.view(np.float64),
                             np.array(edge_values())]).tolist()
    got, want = formatted(compiled_rows, values), list(map(repr, values))
    assert len(got) == len(want)
    assert [(v, g, w) for v, g, w in zip(values, got, want) if g != w][:5] == []


@settings(deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_formatter_matches_repr_on_any_float(compiled_rows, values):
    assert formatted(compiled_rows, values) == [repr(float(v)) for v in values]


def test_formatter_rejects_columns_it_cannot_read(tmp_path):
    # the compiled formatter reads each column as a contiguous array
    path = tmp_path / "rows.csv"
    for column in (np.zeros(3), np.zeros(4, dtype=np.float32), np.zeros((4, 1)),
                   np.zeros(8)[::2]):
        with pytest.raises(ValueError, match="4 float64 values"):
            reports._write_blocks(path, "rows", ["n", "v"], [[column]], 4)
        assert not path.exists()


def test_bad_block_array_leaves_no_file(tmp_path):
    # one array of blocks is checked once, through its first block, whose
    # layout every other block shares
    path = tmp_path / "rows.csv"
    for data in (np.zeros((3, 2, 4), dtype=np.float32), np.zeros((3, 2, 8))[:, :, ::2],
                 np.zeros((3, 4, 2)).transpose(0, 2, 1), np.zeros((3, 5)), np.zeros((3, 2, 3))):
        with pytest.raises(ValueError, match="4 float64 values"):
            reports._write_blocks(path, "rows", ["n", "v", "w"], data, 4, [b""] * 3)
        assert not path.exists()


def test_rows_without_a_head_leave_no_file(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="one head per row"):
        reports._write_blocks(path, "rows", ["n", "v"], [[np.zeros(2)]], 2, heads=["0,0.0"])
    assert not path.exists()
    result, centers = trajectory(10, 2, 2)
    with pytest.raises(ValueError, match="one head per row"):
        reports.write_trajectory_csv(path, result, centers[:-1])
    assert not path.exists()


def test_reference_values_read_the_disturbance_at_every_level():
    sc = build_linear_benchmark()
    assert reports.reference_values(sc) == (*reports.REFERENCE_GAP_NORMS[(0.75, 1600)],
                                            reports.REFERENCE_ETA[1600])
    b, T = sc.coefficients.b, sc.grid.T
    # only the last of the 21335 levels differs
    sc.coefficients.b = DisturbanceSignal(2, lambda t: b(t) + 1e-3 * (t == T)[..., None])
    assert reports.reference_values(sc) is None


def backend_bytes(monkeypatch, tmp_path, write):
    """What ``write(path)`` writes with the compiled library and without it."""
    out = {}
    for backend in ("c", "numpy"):
        with monkeypatch.context() as mp:
            if backend == "numpy":
                mp.setattr(solver, "_load", lambda: None)
            write(tmp_path / backend)
        out[backend] = (tmp_path / backend).read_bytes()
    return out


@pytest.mark.parametrize("name", ["linear_benchmark", "saint_venant", "isothermal_euler"])
def test_writers_same_bytes_each_backend(compiled_rows, monkeypatch, tmp_path, name):
    sc = load_scenario(str(SCENARIOS / f"{name}.json")).build(J=64)
    report = certifier.certify(sc)
    result = solver.run(sc, stride=40)
    trace = lyapunov.build_trace(result, sc, report)
    assert trace.envelope is not None
    for each in (trace, replace(trace, envelope=None)):
        got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trace_csv(p, each))
        assert got["c"] == got["numpy"]
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trajectory_csv(
        p, result, sc.grid.centers))
    assert got["c"] == got["numpy"]


def trajectory(J, k, levels, seed=3):
    """A recorded run of ``levels`` snapshots of J cells and k components,
    at levels 0 .. levels-1, with values of every kind, and its cell centres."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, levels + 1)
    snapshots = np.ascontiguousarray([rng.normal(scale=10.0 ** n, size=(J, k)).T
                                      for n in range(levels)])
    snapshots[1, 0, :6] = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]
    result = solver.SimulationResult(times=times, lyapunov=times, b_sq=times,
                                     final=snapshots[-1].T, backend="numpy",
                                     levels=np.arange(levels), snapshots=snapshots)
    return result, np.linspace(-0.5, J + 0.5, J + 2) / J


def test_trajectory_k3_same_bytes_each_backend(compiled_rows, monkeypatch, tmp_path):
    # three components, more cells than one chunk, and values of every kind
    J = reports._CHUNK + 5
    result, centers = trajectory(J, 3, 3)
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trajectory_csv(
        p, result, centers))
    assert got["c"] == got["numpy"]
    assert got["c"].count(b"\n") == 2 + 3 * J


@pytest.mark.parametrize("k", [2, 3])
def test_trajectory_across_calls_same_bytes_each_backend(compiled_rows, monkeypatch,
                                                         tmp_path, k):
    # J does not divide the rows per call, so calls hold the end of one
    # snapshot and the start of the next, and the bytes are the generic writer's
    J = 1000
    result, centers = trajectory(J, k, 6)
    calls, make = [], reports._row_formatter

    def counted(data, prefixes, heads, table, block):
        rows = make(data, prefixes, heads, table, block)
        return lambda i0, i1: calls.append(int(table[i0:i1, 3].sum())) or rows(i0, i1)
    monkeypatch.setattr(reports, "_row_formatter", counted)
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trajectory_csv(
        p, result, centers))
    assert got["c"] == got["numpy"]
    # the rows of each call, under each backend: full calls, then the rest
    assert reports._CHUNK % J and calls == 2 * [reports._CHUNK, 6 * J - reports._CHUNK]
    rows = [(n, result.times[n], j, centers[j + 1], *interior[j])
            for n, interior in result.history for j in range(J)]
    reports._write_csv(tmp_path / "rows.csv", "trajectory",
                       ["n", "t", "j", "x"] + [f"w{i + 1}" for i in range(k)], rows)
    assert got["c"] == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("J", [1000, reports._CHUNK + 5])
def test_marched_trajectory_across_calls_same_bytes_each_backend(compiled_rows, monkeypatch,
                                                                 tmp_path, J):
    # the march's own snapshot array, with J not dividing the rows per call
    # or above them, written by each formatter as the generic writer writes it
    raw = load_scenario(str(SCENARIOS / "isothermal_euler.json")).raw
    raw["grid"]["T"] = 4.5 * ScenarioSpec(raw=raw).build(J=J).grid.dt
    sc = ScenarioSpec(raw=raw).build(J=J)
    result = solver.run(sc, stride=2)
    assert result.levels.tolist() == [0, 2, 4, 5]
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trajectory_csv(
        p, result, sc.grid.centers))
    assert got["c"] == got["numpy"]
    reports._write_csv(tmp_path / "rows.csv", "trajectory", ["n", "t", "j", "x", "w1", "w2"],
                       [(n, result.times[n], j, sc.grid.centers[j + 1], *interior[j])
                        for n, interior in result.history for j in range(J)])
    assert got["c"] == (tmp_path / "rows.csv").read_bytes()


def test_trace_without_envelope_writes_an_empty_field(compiled_rows, monkeypatch, tmp_path):
    times = np.linspace(0.0, 1.0, reports._CHUNK + 7)
    trace = lyapunov.LyapunovTrace(times=times, L=np.exp(-times), envelope=None,
                                   sup_b_sq=times ** 2, l2_weight=1.0)
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trace_csv(p, trace))
    assert got["c"] == got["numpy"]
    lines = got["c"].decode().splitlines()[2:]
    assert len(lines) == times.size
    assert all(line.split(",")[3] == "" and len(line.split(",")) == 5 for line in lines)


def test_bad_snapshots_leave_no_file(tmp_path):
    result, centers = trajectory(1000, 2, 6)
    path = tmp_path / "trajectory.csv"
    snapshots = result.snapshots
    for bad in (snapshots.astype(np.float32), np.asfortranarray(snapshots)):
        result.snapshots = bad
        with pytest.raises(ValueError, match="1000 float64 values"):
            reports.write_trajectory_csv(path, result, centers)
        assert not path.exists()
    result.snapshots = None
    with pytest.raises(ValueError, match="without snapshot recording"):
        reports.write_trajectory_csv(path, result, centers)
    assert not path.exists()


def test_strided_trace_and_strided_snapshots(tmp_path, march_backend):
    # trace columns that are strided views of one array, and every other
    # snapshot of an array, in either order, write what the generic row writer writes
    times = np.linspace(0.0, 1.0, reports._CHUNK + 7)
    table = np.stack([times, np.exp(-times), 2.0 * np.exp(-times), times ** 2], axis=1)
    trace = lyapunov.LyapunovTrace(times=table[:, 0], L=table[:, 1], envelope=table[:, 2],
                                   sup_b_sq=table[:, 3], l2_weight=1.0)
    assert not trace.L.flags.c_contiguous
    reports.write_trace_csv(tmp_path / "trace.csv", trace)
    reports._write_csv(tmp_path / "rows.csv", "lyapunov-trace",
                       ("n", "t", "L", "envelope", "sup_b_sq"),
                       [(n, *row) for n, row in enumerate(table)])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    result, centers = trajectory(300, 3, 5)
    for step in (2, -2):
        result = replace(result, levels=result.levels[::step], snapshots=result.snapshots[::step])
        assert all(interior.flags.f_contiguous for _, interior in result.history)
        reports.write_trajectory_csv(tmp_path / "trajectory.csv", result, centers)
        reports._write_csv(tmp_path / "rows.csv", "trajectory",
                           ["n", "t", "j", "x", "w1", "w2", "w3"],
                           [(n, result.times[n], j, centers[j + 1], *interior[j])
                            for n, interior in result.history for j in range(300)])
        assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_writers_fall_back_without_compiler(compiled_rows, monkeypatch, tmp_path):
    sc = build_linear_benchmark(J=20, cfl=0.75, T=1.0, mu=0.575, xi=0.125,
                                kappa12=0.5, kappa21=0.5)
    result = solver.run(sc, stride=7)
    trace = lyapunov.build_trace(result, sc, certifier.certify(sc))

    def write(out):
        out.mkdir()
        reports.write_trace_csv(out / "trace.csv", trace)
        reports.write_trajectory_csv(out / "trajectory.csv", result, sc.grid.centers)
        return [(out / name).read_bytes() for name in ("trace.csv", "trajectory.csv")]

    compiled = write(tmp_path / "c")
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(solver, "_CC", (str(tmp_path / "no-such-cc"), *solver._CC[1:]))
    monkeypatch.setattr(solver, "_load", functools.cache(solver._load.__wrapped__))
    assert solver._load() is None
    assert write(tmp_path / "fallback") == compiled
