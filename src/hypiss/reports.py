"""CSV, JSON and aligned-text emitters for the command-line front end.

All CSV files start with a ``# hypiss-v1`` comment naming the payload;
floats are written with Python's shortest round-trip representation so
reruns diff cleanly.
"""

from __future__ import annotations

import inspect
import itertools
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .core import DisturbanceSignal
from .lyapunov import LyapunovTrace
from .models import build_linear_benchmark
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
    "REFERENCE_PARAMS",
    "is_reference_benchmark",
]

# Reference values for the standard constant-coefficient benchmark
# (REFERENCE_PARAMS): decay rates and envelope-gap norms by (cfl, J).  The
# table command reports relative deviations against these when the
# scenario matches the benchmark.
REFERENCE_PARAMS = {
    "l": 1.0, "T": 10.0, "mu": 0.575, "xi": 0.125, "kappa12": 0.5, "kappa21": 0.5,
    "speeds": (1.0, -1.0), "source": ((0.3, -0.1), (-0.1, 0.3)), "ic": (-0.5, 0.5),
    "p_plus": (1.0,), "p_minus": (1.0,), "m_diag": (1.0, 1.0),
    "b": DisturbanceSignal.pulsed_sine(2, amplitude=0.01, cutoff=5.0),
}
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_lines(path: Path, tag: str, header: Sequence[str],
                 lines: Iterable[str]) -> None:
    """Tag line, header, then ``lines`` (each ending in a newline) streamed."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# hypiss-v1 {tag}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _write_csv(path: Path, tag: str, header: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    _write_lines(path, tag, header,
                 (",".join(_fmt(v) for v in row) + "\n" for row in rows))


def write_trace_csv(path: Path, trace: LyapunovTrace) -> None:
    """Columns n, t, L, envelope, sup_b_sq; the supremum column holds the
    running sup of |b|^2 over levels strictly before n (what the envelope
    at level n uses)."""
    env = (itertools.repeat("") if trace.envelope is None
           else map(repr, trace.envelope.tolist()))
    lines = (f"{n},{t!r},{L!r},{e},{s!r}\n" for n, (t, L, e, s) in
             enumerate(zip(trace.times.tolist(), trace.L.tolist(), env,
                           trace.sup_b_sq.tolist())))
    _write_lines(path, "lyapunov-trace", ("n", "t", "L", "envelope", "sup_b_sq"), lines)


def write_trajectory_csv(path: Path, result: SimulationResult,
                         centers: np.ndarray) -> None:
    """Recorded interior snapshots, one row per (level, cell)."""
    if result.history is None:
        raise ValueError("simulation was run without history recording")
    J, k = result.history[0][1].shape
    header = ["n", "t", "j", "x"] + [f"w{i + 1}" for i in range(k)]
    cells = [f"{j},{x!r}," for j, x in enumerate(centers[1:-1].tolist())]
    row = ("{}{}" + ",".join(["{!r}"] * k) + "\n").format   # level, cell, w1 .. wk

    def lines():
        for n, interior in result.history:
            level = f"{n},{result.times[n].item()!r},"
            yield from map(row, itertools.repeat(level, J), cells, *interior.T.tolist())

    _write_lines(path, "trajectory", header, lines())


def write_table(csv_path: Path, txt_path: Path, rows: List[dict],
                reference: Optional[dict] = None) -> str:
    """Convergence table (J, gap norms, mu, eta) as CSV plus aligned text.

    ``reference`` maps J -> (sup_ref, l2_ref, eta_ref); deviations are
    appended to the text report only.
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
    if reference:
        lines.append("")
        lines.append("relative deviation from benchmark reference values:")
        for r in rows:
            ref = reference.get(r.get("J"))
            if ref is None or "error" in r:
                continue
            sup_ref, l2_ref, eta_ref = ref
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


def is_reference_benchmark(params: dict) -> bool:
    """True when linear-model parameters (``ScenarioSpec.params``),
    with the builder's defaults applied, are the reference parameter set."""
    bound = inspect.signature(build_linear_benchmark).bind_partial(**params)
    bound.apply_defaults()
    return bound.arguments == REFERENCE_PARAMS
