"""CSV, JSON and aligned-text emitters for the command-line front end.

All CSV files start with a ``# hypiss-v1`` comment naming the payload;
floats are written with Python's shortest round-trip representation so
reruns diff cleanly.

The trace and trajectory writers hand blocks of float columns to
``_write_blocks``.  Its rows come from the compiled ``hypiss_csv_rows``,
which prints each float as ``repr`` does, when ``solver._load()`` has the
library, and otherwise from ``_python_rows``: the same bytes either way.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import solver
from .lyapunov import LyapunovTrace
from .models import Scenario, build_linear_benchmark
from .solver import SimulationResult

__all__ = [
    "write_trace_csv",
    "write_trajectory_csv",
    "write_table",
    "write_sweep",
    "write_certificate",
    "write_summary",
    "REFERENCE_GAP_NORMS",
    "REFERENCE_ETA",
    "REFERENCE_ARGS",
    "reference_values",
]

# Reference values for the standard constant-coefficient benchmark, which
# ``build_linear_benchmark(J, cfl, **REFERENCE_ARGS)`` builds: decay rates
# and envelope-gap norms by (cfl, J).  The table command reports relative
# deviations against these for each row whose scenario is that benchmark.
REFERENCE_ARGS = {"T": 10.0, "mu": 0.575, "xi": 0.125, "kappa12": 0.5, "kappa21": 0.5}
REFERENCE_ETA = {200: 0.57335, 400: 0.57417, 800: 0.57459, 1600: 0.57479}
REFERENCE_GAP_NORMS = {
    (0.75, 200): (0.23286, 0.36365),
    (0.75, 400): (0.23069, 0.36113),
    (0.75, 800): (0.22918, 0.35931),
    (0.75, 1600): (0.22813, 0.35801),
    (1.0, 200): (0.23026, 0.32884),
    (1.0, 400): (0.22886, 0.32746),
    (1.0, 800): (0.2279, 0.32645),
    (1.0, 1600): (0.22723, 0.32572),
}


_CHUNK = 4096      # rows per call of the row formatter
_FIELD = 25        # bytes of a float field: the comma and at most 24 characters


@functools.cache
def _schubfach_table() -> np.ndarray:
    """The compiled formatter's table, made on its first use:
    g = floor(10^-k 2^-r) + 1 with r = floor(log2 10^-k) - 125, for
    k = -324 .. 292, as rows (g >> 63, g mod 2^63); exact integers, and r
    from the fixed-point logarithm that ``_march.c`` uses."""
    table = []
    for k in range(-324, 293):
        r = ((-k * 913124641741) >> 38) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        table.append((g >> 63, g & (2 ** 63 - 1)))
    return np.array(table, dtype=np.uint64)


def _python_rows():
    """``hypiss_csv_rows`` in Python; a column that repeats for the same
    rows, as the trajectory's ``x`` does at every level, is formatted once."""
    reprs = functools.lru_cache(16)(lambda raw: list(map(repr, np.frombuffer(raw).tolist())))

    def rows(prefix, first, count, columns):
        fields = [itertools.repeat("", count) if c is None
                  else reprs(c[first:first + count].tobytes()) for c in columns]
        head = prefix.decode()
        lines = map(",".join, zip(map(str, range(first, first + count)), *fields))
        return "".join(f"{head}{line}\n" for line in lines).encode()
    return rows


def _row_formatter():
    """``_python_rows()``, or when the library loads, ``hypiss_csv_rows``
    with its table bound, returning a view of one reused buffer."""
    lib = solver._load()
    if lib is None:
        return _python_rows()
    fn, ptr, long = lib.hypiss_csv_rows, ctypes.c_void_p, ctypes.c_long
    fn.restype, fn.argtypes = long, [ptr, ptr, ctypes.c_char_p] + [long] * 4 + [ptr] * 2
    table = _schubfach_table().ctypes.data
    buf = np.empty(0, dtype=np.uint8)

    def rows(prefix, first, count, columns):
        nonlocal buf
        size = count * (len(prefix) + 21 + _FIELD * len(columns))
        if buf.size < size:
            buf = np.empty(size, dtype=np.uint8)
        ptrs = (ptr * len(columns))(*(None if c is None else c.ctypes.data for c in columns))
        steps = (long * len(columns))(*(0 if c is None else c.strides[0] // 8 for c in columns))
        n = fn(table, buf.ctypes.data, prefix, len(prefix), first, count, len(columns), ptrs, steps)
        return buf[:n]
    return rows


def _write_blocks(path: Path, tag: str, header: Sequence[str],
                  blocks: Iterable[tuple]) -> None:
    """Tag line, header, then for each block ``(prefix, count, columns)``
    and i < count the row ``prefix``, i, and per column a comma and
    ``repr(column[i])``, or only the comma for None, in chunks of at most
    ``_CHUNK`` rows.  Every block's columns are checked before the file is
    opened, so a bad column leaves no file behind."""
    blocks = list(blocks)
    for _, count, columns in blocks:
        if any(c is not None and (c.dtype != np.float64 or c.shape != (count,)
                                  or c.strides[0] % 8) for c in columns):
            raise ValueError(f"each column must hold {count} float64 values")
    rows = _row_formatter()
    with path.open("wb") as fh:
        fh.write(f"# hypiss-v1 {tag}\n{','.join(header)}\n".encode())
        for prefix, count, columns in blocks:
            for first in range(0, count, _CHUNK):
                fh.write(rows(prefix, first, min(_CHUNK, count - first), columns))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, tag: str, header: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# hypiss-v1 {tag}\n{','.join(header)}\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_trace_csv(path: Path, trace: LyapunovTrace) -> None:
    """Columns n, t, L, envelope, sup_b_sq; the supremum column holds the
    running sup of |b|^2 over levels strictly before n (what the envelope
    at level n uses)."""
    columns = [trace.times, trace.L, trace.envelope, trace.sup_b_sq]
    _write_blocks(path, "lyapunov-trace", ("n", "t", "L", "envelope", "sup_b_sq"),
                  [(b"", trace.times.size, columns)])


def write_trajectory_csv(path: Path, result: SimulationResult,
                         centers: np.ndarray) -> None:
    """Recorded interior snapshots, one row per (level, cell)."""
    if result.history is None:
        raise ValueError("simulation was run without history recording")
    J, k = result.history[0][1].shape
    x = centers[1:-1]
    blocks = ((f"{n},{result.times[n].item()!r},".encode(), J, [x, *interior.T])
              for n, interior in result.history)
    _write_blocks(path, "trajectory", ["n", "t", "j", "x"] + [f"w{i + 1}" for i in range(k)],
                  blocks)


def write_table(csv_path: Path, txt_path: Path, rows: List[dict]) -> str:
    """Convergence table (J, gap norms, mu, eta) as CSV plus aligned text.

    A row whose ``reference`` holds ``reference_values`` gets its relative
    deviations from them appended to the text report only.
    """
    header = ("J", "sup_gap", "l2_gap", "mu", "eta")
    _write_csv(csv_path, "convergence-table", header,
               [(r["J"], r.get("sup_gap"), r.get("l2_gap"), r.get("mu"), r.get("eta"))
                for r in rows])
    lines = [f"{'J':>6s} {'sup gap':>12s} {'l2 gap':>12s} {'mu':>8s} {'eta':>10s}"]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['J']:>6d} failed: {r['error']}")
            continue
        mu = "n/a" if r["mu"] is None else f"{r['mu']:.4g}"
        lines.append(f"{r['J']:>6d} {r['sup_gap']:>12.5f} {r['l2_gap']:>12.5f} "
                     f"{mu:>8s} {r['eta']:>10.5f}")
    referenced = [r for r in rows if r.get("reference")]
    if referenced:
        lines += ["", "relative deviation from benchmark reference values:"]
    for r in referenced:
        sup_ref, l2_ref, eta_ref = r["reference"]
        lines.append(
            f"{r['J']:>6d} sup {abs(r['sup_gap'] - sup_ref) / sup_ref:>9.2%}"
            f"  l2 {abs(r['l2_gap'] - l2_ref) / l2_ref:>9.2%}"
            f"  eta {abs(r['eta'] - eta_ref) / eta_ref:>10.3%}")
    text = "\n".join(lines) + "\n"
    txt_path.write_text(text, encoding="utf-8")
    return text


def write_sweep(csv_path: Path, txt_path: Path, rows: List[dict]) -> str:
    header = ("xi", "kappa12_bound", "kappa21_bound", "nu", "envelope_constant")
    _write_csv(csv_path, "xi-sweep", header,
               [(r["xi"], r["kappa12_bound"], r["kappa21_bound"], r["nu"],
                 r["envelope_constant"]) for r in rows])
    lines = [f"{'xi':>10s} {'|k12| bound':>12s} {'|k21| bound':>12s} "
             f"{'nu':>10s} {'env const':>12s}"]
    for r in rows:
        k12 = "n/a" if r["kappa12_bound"] is None else f"{r['kappa12_bound']:.6f}"
        k21 = "n/a" if r["kappa21_bound"] is None else f"{r['kappa21_bound']:.6f}"
        env = "n/a" if r["envelope_constant"] is None else f"{r['envelope_constant']:.6f}"
        lines.append(f"{r['xi']:>10.6f} {k12:>12s} {k21:>12s} {r['nu']:>10.6f} {env:>12s}")
    text = "\n".join(lines) + "\n"
    txt_path.write_text(text, encoding="utf-8")
    return text


def write_certificate(json_path: Path, txt_path: Path, report) -> None:
    json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    txt_path.write_text(report.to_text(), encoding="utf-8")


def write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def reference_values(scenario: Scenario) -> Optional[tuple]:
    """(sup_ref, l2_ref, eta_ref) when ``scenario`` is the reference
    benchmark at a tabulated (cfl, J): its grid, ``xi``, ``mu``, sampled
    coefficients, weights, initial data and disturbance at every time level
    all equal those that ``build_linear_benchmark`` makes there; else None."""
    grid, c = scenario.grid, scenario.coefficients
    gaps = REFERENCE_GAP_NORMS.get((grid.cfl, grid.J))
    if gaps is None:
        return None
    ref = build_linear_benchmark(grid.J, grid.cfl, **REFERENCE_ARGS)
    w, rw, rc, t = scenario.weights, ref.weights, ref.coefficients, grid.times()
    same = (grid == ref.grid and scenario.xi == ref.xi and w.mu == rw.mu
            and all(map(np.array_equal, (c.lam, c.pi, c.K, c.M, w.values, scenario.initial),
                        (rc.lam, rc.pi, rc.K, rc.M, rw.values, ref.initial)))
            and np.array_equal(c.b(t), rc.b(t)))
    return (*gaps, REFERENCE_ETA[grid.J]) if same else None
