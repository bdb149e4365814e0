"""CSV, JSON and aligned-text emitters for the command-line front end.

All CSV files start with a ``# hypiss-v1`` comment naming the payload;
floats are written with Python's shortest round-trip representation so
reruns diff cleanly.

The trace and trajectory writers hand blocks of float columns to
``_write_blocks``: the trace one block whose rows are headed by their
number, the trajectory the march's (levels, k, J) snapshot array, one block
per snapshot whose rows are headed by the cell's ``j,x``, formatted once
per file.  Its rows come, up to ``_CHUNK`` rows and as many blocks as fit
per call, from the compiled
``hypiss_csv_rows``, which prints each float as ``repr`` does, when
``solver._load()`` has the library, and otherwise from ``_python_rows``:
the same bytes either way.
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
    "reference_values",
]

# Reference values for the standard constant-coefficient benchmark, which
# ``build_linear_benchmark(J=J, cfl=cfl)`` builds: decay rates and
# envelope-gap norms by (cfl, J).  The table command reports relative
# deviations against these for each row whose scenario is that benchmark.
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


def _python_rows(data, prefixes, heads, table, block):
    """``hypiss_csv_rows`` in Python, for the pieces that ``_write_blocks`` makes."""
    def rows(i0, i1):
        text = []
        for (offset, size, first, count), b in zip(table[i0:i1].tolist(), block[i0:i1].tolist()):
            fields = [itertools.repeat("", count) if c is None
                      else map(repr, c[first:first + count].tolist()) for c in data[b]]
            names = (map(str, range(first, first + count)) if heads is None
                     else heads[first:first + count])
            start = prefixes[offset:offset + size].decode()
            text += (f"{start}{line}\n" for line in map(",".join, zip(names, *fields)))
        return "".join(text).encode()
    return rows


def _row_formatter(data, prefixes, heads, table, block):
    """``_python_rows`` of the same arguments, or when the library loads,
    ``hypiss_csv_rows`` with its table, the pieces and heads bound, returning
    a view of one buffer that holds a call's rows.  Block b's columns are at
    block 0's addresses plus b times the stride between ``data``'s blocks:
    an array's, or none for a list of one block."""
    lib = solver._load()
    if lib is None:
        return _python_rows(data, prefixes, heads, table, block)
    fn, g = lib.hypiss_csv_rows, _schubfach_table().ctypes.data
    if heads is None:
        head_text, head_at, head_len = None, None, 21
    else:
        head_text, head_len = "".join(heads).encode(), max(map(len, heads), default=0)
        head_at = np.cumsum([0, *map(len, heads)], dtype=table.dtype)
    at = np.array([0 if c is None else c.ctypes.data for c in data[0]], dtype=np.intp)
    ptrs = np.where(at, at + block[:, None] * getattr(data, "strides", (0,))[0], 0)
    need = table[:, 3] * (table[:, 1] + head_len + 1 + _FIELD * at.size)   # bytes per piece
    held = [np.empty(0, dtype=np.uint8), table, ptrs, head_at]   # rows holds what it passes
    out, pieces, columns, head_ptr = (None if a is None else a.ctypes.data for a in held)

    def rows(i0, i1):
        nonlocal out
        size = need[i0:i1].sum()
        if held[0].size < size:
            held[0] = np.empty(size, dtype=np.uint8)
            out = held[0].ctypes.data
        n = fn(g, out, i1 - i0, pieces + i0 * table.strides[0], prefixes, at.size,
               columns + i0 * ptrs.strides[0], head_text, head_ptr)
        return held[0][:n]
    return rows


def _write_blocks(path: Path, tag: str, header: Sequence[str], data, count: int,
                  prefixes: Sequence[bytes] = (b"",), heads: Optional[List[str]] = None) -> None:
    """Tag line, header, then for each block b of ``data`` and i < count the
    row ``prefixes[b]``, the head, and per column c a comma and
    ``repr(data[b][c][i])``, or only the comma where that column is None.
    The head is i, or ``heads[i]`` when ``heads`` is given.  ``data`` is a
    (blocks, columns, count) array, or a list of one block's columns.  The
    formatter gets at most ``_CHUNK`` rows per call, from as many blocks as
    fit, as pieces (block, first row, rows) made by array arithmetic.  Block
    0's columns are checked before the file is opened, and the others share
    their layout, so a bad or non-contiguous column, or a row without a
    head, leaves no file behind."""
    if any(c is not None and (c.dtype != np.float64 or c.shape != (count,)
                              or not c.flags.c_contiguous) for c in data[0]):
        raise ValueError(f"each column must hold {count} float64 values, contiguous")
    if heads is not None and len(heads) != count:
        raise ValueError(f"{len(heads)} heads for {count} rows: there must be one head per row")
    total = len(data) * count
    # each row where a block or a call starts, once (np.unique would import numpy.ma)
    first = np.sort(np.concatenate([np.arange(0, total, count), np.arange(0, total, _CHUNK)]))
    first = first[np.diff(first, prepend=-1) > 0]
    block = first // count
    start = np.cumsum([0, *map(len, prefixes)])
    table = np.column_stack([start[block], np.diff(start)[block], first - block * count,
                             np.diff(first, append=total)]).astype(ctypes.c_long)
    calls = [*np.flatnonzero(first % _CHUNK == 0).tolist(), block.size]
    rows = _row_formatter(data, b"".join(prefixes), heads, table, block)
    with path.open("wb") as fh:
        fh.write(f"# hypiss-v1 {tag}\n{','.join(header)}\n".encode())
        for i0, i1 in zip(calls, calls[1:]):
            fh.write(rows(i0, i1))


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
    columns = [None if c is None else np.ascontiguousarray(c)
               for c in (trace.times, trace.L, trace.envelope, trace.sup_b_sq)]
    _write_blocks(path, "lyapunov-trace", ("n", "t", "L", "envelope", "sup_b_sq"),
                  [columns], trace.times.size)


def write_trajectory_csv(path: Path, result: SimulationResult,
                         centers: np.ndarray) -> None:
    """Recorded interior snapshots, one row per (level, cell), written
    straight from ``result.snapshots``."""
    if result.snapshots is None:
        raise ValueError("simulation was run without snapshot recording")
    _, k, J = result.snapshots.shape
    heads = [f"{j},{x!r}" for j, x in enumerate(centers[1:-1].tolist())]
    levels = result.levels.tolist()
    prefixes = [f"{n},{t!r},".encode() for n, t in zip(levels, result.times[levels].tolist())]
    _write_blocks(path, "trajectory", ["n", "t", "j", "x"] + [f"w{i + 1}" for i in range(k)],
                  result.snapshots, J, prefixes, heads)


def write_table(csv_path: Path, txt_path: Path, rows: List[dict]) -> str:
    """Convergence table (J, gap norms, mu, eta) as CSV plus aligned text.

    A row whose ``reference`` holds ``reference_values`` gets its relative
    deviations from them appended to the text report only.
    """
    header = ("J", "sup_gap", "l2_gap", "mu", "eta")
    _write_csv(csv_path, "convergence-table", header, [tuple(map(r.get, header)) for r in rows])
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
    _write_csv(csv_path, "xi-sweep", header, [tuple(map(r.get, header)) for r in rows])
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


def write_certificate(json_path: Path, txt_path: Path, report) -> str:
    json_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    text = report.to_text()
    txt_path.write_text(text, encoding="utf-8")
    return text


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
    ref = build_linear_benchmark(J=grid.J, cfl=grid.cfl)
    w, rw, rc, t = scenario.weights, ref.weights, ref.coefficients, grid.times()
    same = (grid == ref.grid and scenario.xi == ref.xi and w.mu == rw.mu
            and all(map(np.array_equal, (c.lam, c.pi, c.K, c.M, w.values, scenario.initial),
                        (rc.lam, rc.pi, rc.K, rc.M, rw.values, ref.initial)))
            and np.array_equal(c.b(t), rc.b(t)))
    return (*gaps, REFERENCE_ETA[grid.J]) if same else None
