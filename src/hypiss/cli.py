"""Command-line front end: certify, run, table and sweep.

Exit codes: ``certify`` is nonzero exactly when the certificate fails,
``run`` when it fails and ``--force`` was not given, and ``table`` when
any row fails, as a row with a value or gap norm that is not finite does,
or one whose grid the ``--cfl`` gives more than 10^8 steps.  A bad
``--stride``, ``--J-list``, ``--xi-range`` or ``--cfl`` (outside (0, 1])
exits 2 from argparse before anything is read.  Any other failure is an exception that
a command raises and :func:`main` alone maps to exit 2 and one stderr
line: a scenario that fails to load or build (``scenario error:``, before
``--out`` is made), a solver abort, a value that is not finite (``run``
checks before it writes the trace), running out of memory, or an unusable
``--out`` such as an existing file.

``table`` marches its rows on up to one thread per available CPU when
the compiled march runs, the largest J first, and its output is the same
for any number of threads; an exception that is not a row's own error,
raised in any thread, is raised again on the calling thread once every
helper has finished.  Every other command, and ``table`` under the NumPy
march, runs in one thread.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import certifier, core, lyapunov, reports, solver
from .scenario import ScenarioError, ScenarioSpec, load_scenario

__all__ = ["main"]


def _out_dir(spec: argparse.Namespace) -> Path:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_certify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario).build()
    out = _out_dir(args)
    report = certifier.certify(scenario)
    sys.stdout.write(reports.write_certificate(out / "certificate.json",
                                               out / "certificate.txt", report))
    return 0 if report.overall else 1


def cmd_run(args: argparse.Namespace) -> int:
    # a run that fails to load, aborts or records no snapshots leaves no earlier run's outputs
    for name in ("certificate.json", "certificate.txt", "trace.csv", "trajectory.csv",
                 "summary.json"):
        (Path(args.out) / name).unlink(missing_ok=True)
    scenario = load_scenario(args.scenario).build()
    out = _out_dir(args)
    report = certifier.certify(scenario)
    sys.stdout.write(reports.write_certificate(out / "certificate.json",
                                               out / "certificate.txt", report))
    if not report.overall and not args.force:
        print("certificate failed; rerun with --force to simulate anyway")
        return 1
    result = solver.run(scenario, args.stride)
    trace = lyapunov.build_trace(result, scenario, report)
    max_violation = measured = None
    with np.errstate(all="ignore"):     # a value that is not finite is named below
        if trace.envelope is not None:
            max_violation = float(np.max(trace.L - trace.envelope))
        try:
            measured = lyapunov.fit_decay_rate(trace, t_start=0.7 * scenario.grid.T)
        except ValueError:
            pass
    summary = {
        "scenario": scenario.name,
        "certified": bool(report.overall),
        "eta": report.eta,
        "nu": report.nu,
        "xi": scenario.xi,
        "L0": float(trace.L[0]),
        "final_L": float(trace.L[-1]),
        "final_t": float(trace.times[-1]),
        "measured_decay_rate": measured,
        "max_envelope_violation": max_violation,
        "steps": int(result.steps),
        "march_backend": result.backend,
    }
    certifier._require_finite(summary, "summary ")
    reports.write_trace_csv(out / "trace.csv", trace)
    if result.history is not None:
        reports.write_trajectory_csv(out / "trajectory.csv", result,
                                     scenario.grid.centers)
    reports.write_summary(out / "summary.json", summary)
    print(f"final L = {summary['final_L']:.6g} at t = {summary['final_t']:.6g}"
          + (f", max envelope violation = {max_violation:.3g}"
             if max_violation is not None else ""))
    return 0


def _table_row(spec: ScenarioSpec, J: int, cfl: Optional[float]) -> dict:
    try:
        scenario = spec.build(J=J, cfl=cfl)
        # before certify and the march, so its temporaries are freed before the trace exists
        reference = reports.reference_values(scenario)
        report = certifier.certify(scenario)
        if not report.overall:
            cond = report.first_failure.condition if report.first_failure else "eta*dt"
            return {"J": J, "error": f"certificate failed at {cond}"}
        trace = lyapunov.build_trace(solver.run(scenario), scenario, report)
        sup_gap, l2_gap = lyapunov.envelope_gap_norms(trace)
        return {"J": J, "sup_gap": sup_gap, "l2_gap": l2_gap,
                "mu": scenario.weights.mu, "eta": report.eta, "reference": reference}
    except (ValueError, solver.BlowupError) as exc:   # a ScenarioError is a ValueError
        return {"J": J, "error": str(exc)}


def cmd_table(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario)
    out = _out_dir(args)
    rows, failures = {}, []
    todo = reversed(args.J_list)    # one iterator for every thread: the largest row first

    def march_rows() -> None:
        try:
            for J in todo:
                if failures:    # another thread's error ends the command
                    break
                rows[J] = _table_row(spec, J, args.cfl)
        except BaseException as exc:
            failures.append(exc)

    # helper threads only with the compiled march, which releases the GIL (NumPy's
    # march holds it); loaded here first, so that no two helpers build it at once
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threads = min(len(args.J_list), cpus)
    helpers = [threading.Thread(target=march_rows)
               for _ in range(threads - 1 if threads > 1 and solver._load() else 0)]
    for helper in helpers:
        helper.start()
    march_rows()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    table = [rows[J] for J in args.J_list]
    text = reports.write_table(out / "table.csv", out / "table.txt", table)
    sys.stdout.write(text)
    return 0 if all("error" not in r for r in table) else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario).build()
    out = _out_dir(args)
    rows = certifier.sweep_xi(scenario, args.xi_range)
    text = reports.write_sweep(out / "sweep.csv", out / "sweep.txt", rows)
    sys.stdout.write(text)
    return 0


def _stride(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _j_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")
    if any(v < 2 for v in values):
        raise argparse.ArgumentTypeError("entries must be >= 2")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("must be strictly increasing")
    return values


def _cfl(text: str) -> float:
    try:    # Grid1D's own rule; a row with too many steps fails at its build
        return core.courant_number(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _xi_range(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("must be a:b:steps")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("must be a:b:steps with numeric a, b")
    if not (0 < a < np.inf and 0 < b < np.inf) or steps < 1:   # nan fails both
        raise argparse.ArgumentTypeError("needs finite positive endpoints and steps >= 1")
    if steps > 10 ** 6:     # numpy may fail to allocate a larger grid, outside argparse's reach
        raise argparse.ArgumentTypeError(f"steps must be <= 10^6, got {steps}")
    return [float(x) for x in np.linspace(a, b, steps)]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no state
    between parses: the string defaults of ``--J-list`` and ``--xi-range``
    are converted again on each."""
    parser = argparse.ArgumentParser(
        prog="hypiss",
        description="Certify and simulate 1-D linear hyperbolic balance laws "
                    "with boundary feedback and boundary disturbances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file (JSON or TOML)")
        p.add_argument("--out", required=True, help="output directory")

    p_cert = sub.add_parser("certify", help="run the static checks and write the report")
    common(p_cert)
    p_cert.set_defaults(fn=cmd_certify)

    p_run = sub.add_parser("run", help="certify, simulate and dump the Lyapunov trace")
    common(p_run)
    p_run.add_argument("--force", action="store_true",
                       help="simulate even if the certificate fails")
    p_run.add_argument("--stride", type=_stride, default=None,
                       help="record interior snapshots every STRIDE steps")
    p_run.set_defaults(fn=cmd_run)

    p_table = sub.add_parser("table", help="envelope-gap convergence table over J")
    common(p_table)
    p_table.add_argument("--J-list", dest="J_list", type=_j_list, default="200,400,800,1600",
                         help="comma-separated strictly increasing cell counts")
    p_table.add_argument("--cfl", type=_cfl, default=None,
                         help="override the scenario Courant number")
    p_table.set_defaults(fn=cmd_table)

    p_sweep = sub.add_parser("sweep", help="gain bounds and envelope constant over xi")
    common(p_sweep)
    p_sweep.add_argument("--xi-range", dest="xi_range", type=_xi_range, default="0.05:1.0:20",
                         help="xi grid as a:b:steps")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
    except solver.BlowupError as exc:
        print(f"error: solver aborted: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:    # OSError: say an --out that names a file
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:     # as numpy raises for an array too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
