"""The trace and trajectory writers: each, with and without the compiled
library, against the generic row writer ``reports._write_csv``, which
formats each value of a row tuple; and the compiled row formatter against
``reports._python_rows``, whose ``repr`` is its oracle."""

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
    """The compiled library's row formatter; skipped when it cannot be built."""
    if solver._load() is None:
        pytest.skip("the compiled library could not be built")
    return reports._row_formatter(None)


def formatted(rows_fn, values):
    """The compiled formatter's text for each value, through one column."""
    column = np.asarray(values, dtype=np.float64)
    text = bytes(rows_fn([(b"", 0, column.size, [column])])).decode()
    return [line.split(",", 1)[1] for line in text.splitlines()]


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
    for column in (np.zeros(3), np.zeros(4, dtype=np.float32), np.zeros((4, 1)),
                   np.zeros(8)[::2]):
        with pytest.raises(ValueError, match="4 float64 values"):
            reports._write_blocks(tmp_path / "rows.csv", "rows", ["n", "v"],
                                  [(b"", 4, [column])])


def test_bad_column_in_a_later_block_leaves_no_file(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="4 float64 values"):
        reports._write_blocks(path, "rows", ["n", "v"],
                              [(b"", 2, [np.arange(2.0)]), (b"", 4, [np.zeros(3)])])
    assert not path.exists()


def test_blocks_that_do_not_match_leave_no_file(tmp_path):
    path = tmp_path / "rows.csv"
    for blocks, heads in (([(b"", 2, [np.zeros(2)]), (b"", 2, [np.zeros(2), None])], None),
                          ([(b"", 2, [np.zeros(2)])], ["0,0.0"])):
        with pytest.raises(ValueError, match="same columns and one head per row"):
            reports._write_blocks(path, "rows", ["n", "v"], blocks, heads)
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
    with values of every kind, and its cell centres."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, levels + 1)
    history = [(n, rng.normal(scale=10.0 ** n, size=(J, k))) for n in range(levels)]
    history[1][1][:6, 0] = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]
    result = solver.SimulationResult(times=times, lyapunov=times, b_sq=times,
                                     final=history[-1][1], backend="numpy", history=history)
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
    assert reports._CHUNK % J and len(list(reports._calls(
        (b"", J, []) for _ in result.history))) == math.ceil(6 * J / reports._CHUNK)
    got = backend_bytes(monkeypatch, tmp_path, lambda p: reports.write_trajectory_csv(
        p, result, centers))
    assert got["c"] == got["numpy"]
    rows = [(n, result.times[n], j, centers[j + 1], *interior[j])
            for n, interior in result.history for j in range(J)]
    reports._write_csv(tmp_path / "rows.csv", "trajectory",
                       ["n", "t", "j", "x"] + [f"w{i + 1}" for i in range(k)], rows)
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


def test_bad_snapshot_in_the_last_call_leaves_no_file(tmp_path):
    result, centers = trajectory(1000, 2, 6)
    result.history[-1] = (5, result.history[-1][1].astype(np.float32))
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ValueError, match="1000 float64 values"):
        reports.write_trajectory_csv(path, result, centers)
    assert not path.exists()


def test_strided_trace_and_c_ordered_snapshots(tmp_path, march_backend):
    # trace columns that are strided views of one array, and snapshots in C
    # order, not the solver's F order, write what the generic row writer writes
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

    result, centers = trajectory(300, 3, 3)
    assert all(interior.flags.c_contiguous for _, interior in result.history)
    reports.write_trajectory_csv(tmp_path / "trajectory.csv", result, centers)
    reports._write_csv(tmp_path / "rows.csv", "trajectory", ["n", "t", "j", "x", "w1", "w2", "w3"],
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
