"""Span recorder for the traced run and the per-layer report built from it.

The recorder wraps, from outside the package, the public functions
through which the CLI reaches each layer.  Each span keeps its name,
start, end, parent, operation id and thread.  A span opened on a pool
worker thread, which has no open span of its own, attaches to the open
``cli.main`` span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

LAYERS = ("cli", "scenario", "certifier", "solver", "lyapunov", "reports")
ROW_J = (200, 400, 800, 1600)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    thread: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[tuple, object], Dict[str, float]]] = None) -> Callable:
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
            # counts are taken outside the span, so they cost the parent
            counts = count(args, result) if count is not None else {}
            self.spans.append(Span(sid, name, start, end, parent, self.op,
                                   threading.get_ident(), counts))
            return result

        return traced


def _built(args, scenario):
    return {"J": scenario.grid.J}


def _marched(args, result):
    sim = args[0]
    history = result.history
    return {"J": sim.grid.J, "N": result.steps, "k": sim.coefficients.k,
            "snapshots": 0 if history is None else len(history)}


def _swept(args, rows):
    return {"points": len(rows)}


def _rows(arg_index: int, rows_of: Callable) -> Callable:
    def count(args, result):
        paths = [a for a in args if isinstance(a, (str, os.PathLike))]
        return {"rows": rows_of(args[arg_index]) if arg_index is not None else 0,
                "bytes": sum(os.path.getsize(p) for p in paths if os.path.exists(p))}
    return count


WRITER_ROWS = {
    "write_trace_csv": (1, lambda trace: trace.times.size),
    "write_trajectory_csv": (1, lambda result: sum(a.shape[0] for _, a in result.history)),
    "write_table": (2, len),
    "write_sweep": (2, len),
}


def _targets(hypiss) -> List[tuple]:
    """(owner, attribute, span name, count function) for every wrapper."""
    cli, certifier, solver, lyapunov, reports = (
        hypiss.cli, hypiss.certifier, hypiss.solver, hypiss.lyapunov, hypiss.reports)
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "scenario.load", None),
        (hypiss.scenario.ScenarioSpec, "build", "scenario.build", _built),
        (certifier, "certify", "certifier.certify", None),
        (certifier, "sweep_xi", "certifier.sweep_xi", _swept),
        (solver, "run", "solver.run", _marched),
        (lyapunov, "build_trace", "lyapunov.build_trace", None),
        (lyapunov, "envelope_gap_norms", "lyapunov.envelope_gap_norms", None),
        (lyapunov, "fit_decay_rate", "lyapunov.fit_decay_rate", None),
    ]
    targets += [(certifier, name, f"certifier.{name}", None)
                for name in ("check_transport", "check_source", "check_boundary",
                             "check_continuous_sampled")]
    for name in sorted(vars(reports)):
        if name.startswith("write_") and callable(getattr(reports, name)):
            index, rows_of = WRITER_ROWS.get(name, (None, None))
            targets.append((reports, name, f"reports.{name}", _rows(index, rows_of)))
    return targets


@contextmanager
def installed(recorder: Recorder, hypiss) -> Iterator[List[str]]:
    """Wrap every target while the block runs; yields the names not found."""
    saved, missing = [], []
    for owner, attr, name, count in _targets(hypiss):
        fn = vars(owner).get(attr)
        if fn is None:
            missing.append(name)
            continue
        saved.append((owner, attr, fn))
        setattr(owner, attr, recorder.wrap(name, fn, count))
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def attributed_self(spans: List[Span]) -> Dict[int, float]:
    """Self time of each span: its interval minus what its children cover.

    Where the self intervals of spans on different threads overlap, the
    instant is shared equally between them, so the self times of one
    operation add up to the wall time of its ``cli.main`` spans.
    """
    timed = [s for s in spans if s.end > s.start]
    edges = sorted({s.start for s in timed} | {s.end for s in timed})
    starts: Dict[float, List[Span]] = {}
    ends: Dict[float, List[Span]] = {}
    for s in sorted(timed, key=lambda s: s.id):  # a parent opens before its child
        starts.setdefault(s.start, []).append(s)
        ends.setdefault(s.end, []).append(s)
    open_children: Dict[int, int] = {}
    counted = set()
    active: Dict[int, Span] = {}
    out = {s.id: 0.0 for s in spans}
    for t0, t1 in zip(edges, edges[1:]):
        for s in ends.get(t0, ()):
            del active[s.id]
            if s.id in counted:
                open_children[s.parent] -= 1
        for s in starts.get(t0, ()):
            active[s.id] = s
            open_children[s.id] = 0
            if s.parent in active:
                open_children[s.parent] += 1
                counted.add(s.id)
        leaves = [sid for sid in active if open_children[sid] == 0]
        for sid in leaves:
            out[sid] += (t1 - t0) / len(leaves)
    return out


UNITS = {
    "solver.run_s": "s", "solver.ns_per_cell_step": "ns", "solver.us_per_step": "us",
    "solver.steps": "count", "solver.cell_steps": "count", "solver.snapshot_mb": "MB",
    **{f"solver.ns_per_cell_step.J{J}": "ns" for J in ROW_J},
    "reports.write_s": "s", "reports.trajectory_csv_s": "s", "reports.trace_csv_s": "s",
    "reports.rows": "count", "reports.mb_written": "MB", "reports.mb_per_s": "MB/s",
    "certifier.certify_s": "s", "certifier.c1_s": "s", "certifier.c2_s": "s",
    "certifier.c3_s": "s", "certifier.continuous_s": "s", "certifier.sweep_s": "s",
    "certifier.sweep_points": "count", "certifier.transport_checks_per_command": "count",
    "scenario.load_s": "s", "scenario.build_s": "s", "scenario.build_calls": "count",
    "scenario.us_per_cell_built": "us",
    "lyapunov.build_trace_s": "s", "lyapunov.gap_norms_s": "s", "lyapunov.fit_s": "s",
    "cli.wall_s": "s", "cli.self_s": "s", "cli.overlap": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS[1:]},
    "trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio",
    "trace.spans_per_op": "count",
}


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def _op_metrics(spans: List[Span], op_s: float) -> Dict[str, float]:
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    runs = [s for s in spans if s.name == "solver.run"]
    run_s = sum(s.duration for s in runs)
    steps = sum(s.counts["N"] for s in runs)
    cell_steps = sum(s.counts["J"] * s.counts["N"] for s in runs)
    writers = [s for s in spans if s.layer == "reports"]
    write_s = sum(s.duration for s in writers)
    mb_written = sum(s.counts["bytes"] for s in writers) / 1e6
    mains = [s for s in spans if s.name == "cli.main"]
    main_ids = {s.id for s in mains}
    wall = sum(s.duration for s in mains)
    builds = [s for s in spans if s.name == "scenario.build"]
    build_s = sum(s.duration for s in builds)
    self_s = attributed_self(spans)
    layer_self = {layer: sum(self_s[s.id] for s in spans if s.layer == layer)
                  for layer in LAYERS}
    m = {
        "solver.run_s": run_s,
        "solver.ns_per_cell_step": _ratio(run_s, cell_steps, 1e9),
        "solver.us_per_step": _ratio(run_s, steps, 1e6),
        "solver.steps": steps,
        "solver.cell_steps": cell_steps,
        "solver.snapshot_mb": sum(s.counts["snapshots"] * s.counts["J"] * s.counts["k"] * 8
                                  for s in runs) / 1e6,
        "reports.write_s": write_s,
        "reports.trajectory_csv_s": total("reports.write_trajectory_csv"),
        "reports.trace_csv_s": total("reports.write_trace_csv"),
        "reports.rows": sum(s.counts["rows"] for s in writers),
        "reports.mb_written": mb_written,
        "reports.mb_per_s": _ratio(mb_written, write_s),
        "certifier.certify_s": total("certifier.certify"),
        "certifier.c1_s": total("certifier.check_transport"),
        "certifier.c2_s": total("certifier.check_source"),
        "certifier.c3_s": total("certifier.check_boundary"),
        "certifier.continuous_s": total("certifier.check_continuous_sampled"),
        "certifier.sweep_s": total("certifier.sweep_xi"),
        "certifier.sweep_points": counted("certifier.sweep_xi", "points"),
        "certifier.transport_checks_per_command": _ratio(
            sum(s.name == "certifier.check_transport" for s in spans), len(mains)),
        "scenario.load_s": total("scenario.load"),
        "scenario.build_s": build_s,
        "scenario.build_calls": len(builds),
        "scenario.us_per_cell_built": _ratio(build_s, counted("scenario.build", "J"), 1e6),
        "lyapunov.build_trace_s": total("lyapunov.build_trace"),
        "lyapunov.gap_norms_s": total("lyapunov.envelope_gap_norms"),
        "lyapunov.fit_s": total("lyapunov.fit_decay_rate"),
        "cli.wall_s": wall,
        "cli.self_s": layer_self["cli"],
        "cli.overlap": _ratio(sum(s.duration for s in spans if s.parent in main_ids), wall),
        "trace.accounted_ratio": _ratio(sum(layer_self.values()), op_s),
        "trace.spans_per_op": len(spans),
    }
    for J in ROW_J:
        rows = [s for s in runs if s.counts["J"] == J]
        m[f"solver.ns_per_cell_step.J{J}"] = _ratio(
            sum(s.duration for s in rows), sum(s.counts["J"] * s.counts["N"] for s in rows), 1e9)
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def layer_report(recorder: Recorder, traced_ops: Dict[int, float],
                 untraced_s: List[float]) -> Dict[str, float]:
    """Median over the traced operations of every per-layer metric.

    ``traced_ops`` maps operation id to its wall time; ``untraced_s`` holds
    the wall times of the untraced operations of the same run.
    """
    by_op: Dict[int, List[Span]] = {op: [] for op in traced_ops}
    for s in recorder.spans:
        if s.op in by_op:
            by_op[s.op].append(s)
    per_op = [_op_metrics(spans, traced_ops[op]) for op, spans in by_op.items()]
    report = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    report["trace.overhead_ratio"] = (statistics.median(traced_ops.values())
                                      / statistics.median(untraced_s))
    return report
