"""March, writer, certify and table benchmark on the shipped scenarios.

    PYTHONPATH=src python bench/run_bench.py [--repeats 5] --out BENCH_<n>.json

March rows: for each shipped scenario at J = 200, 400, 800 and 1600, the
rows of the ``table`` command (its other fields as shipped), this times
``hypiss.solver.run`` with the compiled and with the NumPy kernel,
alternating them in every repeat, and reports the median and the minimum
over the repeats of the wall time divided by the J * N cell-steps marched.

Writer rows: at the shape of the ``sv-trajectory`` benchmark workload
(Saint-Venant, J = 400, T = 5, snapshots every 100 steps) it times
``write_trace_csv`` and ``write_trajectory_csv`` with the compiled
formatter and with the Python row formatter, alternating them in every repeat,
and reports the median and minimum wall time and the median ns per float
value formatted.  Each timed write goes to a path removed just before, as
``hypiss run`` removes its outputs, so no repeat times the truncation of a
file written before.  The script exits non-zero when the two formatters
wrote different bytes.

Certify rows: for each shipped scenario at J = 6400 (its other fields as
shipped) this times ``certifier.certify``, its C2 check
``certifier.check_source`` on its own, ``certifier.sweep_xi`` over the
``sweep`` command's default 20 points, and in-process ``cli.main`` calls of
``certify`` and of ``sweep`` on a copy of the file with that J, each once
before the timed repeats, and reports the median and the minimum wall time.

Table rows: in-process ``cli.main`` calls of ``table`` on the shipped
benchmark with the default J list, once before the timed runs, then
``TABLE_RUNS`` times per repeat alternating between the threads the
command starts itself (one per available CPU, at most one per row) and
one thread, the process pinned to one of its CPUs, each in turn, while it
runs; they report the median and the minimum wall time.  The script
exits non-zero when the two wrote different bytes.

The compiled library is built and loaded before the first timed run.  The
result, with the environment it was measured in, is written as JSON to
``--out``, which has no default, so that no run overwrites a committed
result: the ``BENCH_<n>.json`` files at the repository root hold those of
earlier versions, and ``BENCH_3.json`` also a ``c_per_cell`` entry that
this script no longer writes (the compiled kernel with one coefficient
column per cell where every cell holds the same coefficients).  The
environment names the code measured by ``git describe`` and by a sha256
over the files of ``src/hypiss``, which a working tree's uncommitted
edits change too, and says whether the CPU has AVX-512F and AVX2, which
pick the compiled march's body.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hypiss import __version__, certifier, cli, load_scenario, lyapunov, reports, solver  # noqa: E402
from hypiss.scenario import ScenarioSpec  # noqa: E402

SCENARIOS = ("linear_benchmark", "saint_venant", "isothermal_euler")
J_LIST = (200, 400, 800, 1600)     # the table command's rows
BACKENDS = ("c", "numpy")
WRITER_SHAPE = {"scenario": "saint_venant", "J": 400, "T": 5.0, "stride": 100}
CERTIFY_J = 6400
SWEEP_XI = "0.05:1.0:20"    # the sweep command's default grid
TABLE_RUNS = 4      # timed runs of each kind per repeat; one table takes about 0.07 s


def _first_line(argv) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.splitlines()[0].strip() if done.returncode == 0 and done.stdout else None


def source_sha256() -> str:
    """sha256 over each file of src/hypiss, its path and then its bytes, in path order."""
    digest, package = hashlib.sha256(), ROOT / "src" / "hypiss"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    lines = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    flags = next((set(line.split(":", 1)[1].split()) for line in lines
                  if line.startswith("flags")), set())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "hypiss": __version__, "platform": platform.platform(), "cpu_model": cpu,
            "cpu_avx512f": "avx512f" in flags, "cpu_avx2": "avx2" in flags,
            "nproc": len(os.sched_getaffinity(0)),
            "compiler": _first_line([solver._CC[0], "--version"]),
            "compile_command": " ".join(solver._CC),
            "commit": _first_line(["git", "-C", str(ROOT), "describe", "--always", "--dirty"]),
            "src_sha256": source_sha256()}


LOAD = solver._load     # the cached loader, which use("numpy") replaces


def use(backend: str) -> None:
    """Select the compiled library, or none, as on a host without a compiler."""
    solver._load = LOAD if backend == "c" else (lambda: None)
    if backend == "c" and solver._load() is None:
        raise RuntimeError("the compiled library could not be loaded")


def ns_per_cell_step(scenario, backend: str) -> float:
    use(backend)
    start = time.perf_counter()
    result = solver.run(scenario)
    elapsed = time.perf_counter() - start
    if result.backend != backend:
        raise RuntimeError(f"asked for the {backend} kernel, ran {result.backend}")
    return elapsed / (scenario.grid.J * result.steps) * 1e9


def writer_rows(repeats: int) -> list:
    """Wall time of each CSV writer under each backend, on one recorded run."""
    raw = json.loads((ROOT / "scenarios" / f"{WRITER_SHAPE['scenario']}.json").read_text())
    raw["grid"]["T"] = WRITER_SHAPE["T"]
    scenario = ScenarioSpec(raw).build(J=WRITER_SHAPE["J"])
    use("c")
    result = solver.run(scenario, WRITER_SHAPE["stride"])
    trace = lyapunov.build_trace(result, scenario, certifier.certify(scenario))
    J, k = result.history[0][1].shape
    writers = {   # name: (call, float values formatted); trajectory.csv formats x once
        "trace.csv": (lambda path: reports.write_trace_csv(path, trace),
                      trace.times.size * (3 + (trace.envelope is not None))),
        "trajectory.csv": (lambda path: reports.write_trajectory_csv(
            path, result, scenario.grid.centers), len(result.history) * (1 + J * k) + J),
    }
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (write, values) in writers.items():
            times = {backend: [] for backend in BACKENDS}
            paths = {backend: Path(tmp) / f"{backend}-{name}" for backend in BACKENDS}
            for _ in range(repeats):
                for backend, path in paths.items():
                    use(backend)
                    path.unlink(missing_ok=True)
                    start = time.perf_counter()
                    write(path)
                    times[backend].append(time.perf_counter() - start)
            if len({path.read_bytes() for path in paths.values()}) != 1:
                sys.exit(f"{name}: the compiled and the Python formatter wrote different bytes")
            row = {"file": name, **WRITER_SHAPE, "N": result.steps, "values": values,
                   "bytes": paths["c"].stat().st_size,
                   **{backend: {"median_s": statistics.median(t), "min_s": min(t),
                                "ns_per_value": statistics.median(t) / values * 1e9}
                      for backend, t in times.items()}}
            row["speedup_median"] = row["numpy"]["median_s"] / row["c"]["median_s"]
            rows.append(row)
            print(f"{name:17s} c {row['c']['median_s']:.4f} s  numpy "
                  f"{row['numpy']['median_s']:.4f} s  "
                  f"({row['c']['ns_per_value']:.0f} vs {row['numpy']['ns_per_value']:.0f} "
                  f"ns per value)  x{row['speedup_median']:.1f}", file=sys.stderr)
    return rows


def certify_rows(repeats: int) -> list:
    """Wall time of each certify-path call at J = CERTIFY_J, per scenario."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in SCENARIOS:
            raw = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
            raw["grid"]["J"] = CERTIFY_J
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(raw))
            scenario = load_scenario(str(path)).build()
            xis = cli._xi_range(SWEEP_XI)
            calls = {
                "certify": lambda: certifier.certify(scenario),
                "c2": lambda: certifier.check_source(scenario.coefficients, scenario.weights,
                                                     scenario.grid),
                "sweep_xi": lambda: certifier.sweep_xi(scenario, xis),
                "cli_certify": lambda: cli.main(["certify", "--scenario", str(path),
                                                 "--out", str(Path(tmp) / "certify")]),
                "cli_sweep": lambda: cli.main(["sweep", "--scenario", str(path),
                                               "--out", str(Path(tmp) / "sweep")]),
            }
            times = {key: [] for key in calls}
            for key, call in calls.items():
                if call() == 2:     # the warm-up; a failed command would time its error path
                    raise RuntimeError(f"{key} exited 2 on {name}")
            for _ in range(repeats):
                for key, call in calls.items():
                    start = time.perf_counter()
                    call()
                    times[key].append(time.perf_counter() - start)
            row = {"scenario": name, "J": CERTIFY_J, "sweep_points": len(xis),
                   **{key: {"median_s": statistics.median(t), "min_s": min(t)}
                      for key, t in times.items()}}
            rows.append(row)
            print(f"{name:17s} J={CERTIFY_J}  " + "  ".join(
                f"{key} {row[key]['median_s'] * 1e3:.2f}" for key in calls) + " ms",
                file=sys.stderr)
    return rows


def table_rows(repeats: int) -> list:
    """Wall time of the default ``table`` on the shipped benchmark, with the
    command's own threads and with one."""
    use("c")
    cpus = sorted(os.sched_getaffinity(0))
    scenario = str(ROOT / "scenarios" / "linear_benchmark.json")
    times = {"helpers": [], "one_thread": []}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for run in range(-1, TABLE_RUNS * repeats):     # run -1 is the warm-up
            for mode in times:
                out = Path(tmp) / mode
                # one thread: pinned to one CPU, a different one in turn
                os.sched_setaffinity(0, cpus if mode == "helpers" else [cpus[run % len(cpus)]])
                try:
                    start = time.perf_counter()
                    code = cli.main(["table", "--scenario", scenario, "--out", str(out)])
                    elapsed = time.perf_counter() - start
                finally:
                    os.sched_setaffinity(0, cpus)
                if code != 0:
                    raise RuntimeError(f"table exited {code} with {mode}")
                outputs[mode] = [(out / name).read_bytes() for name in ("table.csv", "table.txt")]
                if run >= 0:
                    times[mode].append(elapsed)
    if outputs["helpers"] != outputs["one_thread"]:
        sys.exit("table: the threaded and the one-thread command wrote different bytes")
    row = {"scenario": "linear_benchmark", "J": list(J_LIST),
           "threads": min(len(J_LIST), len(cpus)), "runs": TABLE_RUNS * repeats,
           **{mode: {"median_s": statistics.median(t), "min_s": min(t)}
              for mode, t in times.items()}}
    row["speedup_median"] = row["one_thread"]["median_s"] / row["helpers"]["median_s"]
    print(f"table linear_benchmark  {row['threads']} threads "
          f"{row['helpers']['median_s'] * 1e3:.1f} ms  one thread "
          f"{row['one_thread']['median_s'] * 1e3:.1f} ms  x{row['speedup_median']:.2f}",
          file=sys.stderr)
    return [row]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if solver._load() is None:
        print("the compiled library could not be built; nothing to compare", file=sys.stderr)
        return 1
    rows = []
    for name in SCENARIOS:
        spec = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
        for J in J_LIST:
            scenario = spec.build(J=J)
            times = {backend: [] for backend in BACKENDS}
            for _ in range(args.repeats):
                for backend in BACKENDS:
                    times[backend].append(ns_per_cell_step(scenario, backend))
            row = {"scenario": name, "J": J, "N": scenario.grid.N,
                   **{backend: {"median": statistics.median(t), "min": min(t)}
                      for backend, t in times.items()}}
            row["speedup_median"] = row["numpy"]["median"] / row["c"]["median"]
            rows.append(row)
            print(f"{name:17s} J={J:5d}  c {row['c']['median']:7.2f}  "
                  f"numpy {row['numpy']['median']:7.2f} ns per cell-step  "
                  f"x{row['speedup_median']:.1f}", file=sys.stderr)
    report = {"benchmark": "march, writers, certify and table", "unit": "ns per cell-step",
              "repeats": args.repeats, "environment": environment(), "rows": rows,
              "writers": writer_rows(args.repeats), "certify": certify_rows(args.repeats),
              "table": table_rows(args.repeats)}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
