"""March benchmark: ns per cell-step of each backend on the shipped scenarios.

    PYTHONPATH=src python bench/run_bench.py [--repeats 5] [--out BENCH_1.json]

For each shipped scenario at J = 200 and J = 1600 (its other fields as
shipped) this times ``hypiss.solver.run`` with the compiled and with the
NumPy kernel, alternating the two in every repeat, and reports the
median and the minimum over the repeats of the wall time divided by the
J * N cell-steps marched.  The compiled kernel is built and loaded
before the first timed run.  The result, with the environment it was
measured in, is written as JSON to ``--out`` (``BENCH_1.json`` at the
repository root by default).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hypiss import __version__, load_scenario, solver  # noqa: E402

SCENARIOS = ("linear_benchmark", "saint_venant", "isothermal_euler")
J_LIST = (200, 1600)
BACKENDS = ("c", "numpy")


def _first_line(argv) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.splitlines()[0].strip() if done.returncode == 0 and done.stdout else None


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "hypiss": __version__, "platform": platform.platform(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "compiler": _first_line([solver._CC[0], "--version"]),
            "compile_command": " ".join(solver._CC),
            "commit": _first_line(["git", "-C", str(ROOT), "describe", "--always", "--dirty"])}


def ns_per_cell_step(scenario, backend: str) -> float:
    solver._BACKEND = backend
    start = time.perf_counter()
    result = solver.run(scenario)
    elapsed = time.perf_counter() - start
    if result.backend != backend:
        raise RuntimeError(f"asked for the {backend} kernel, ran {result.backend}")
    return elapsed / (scenario.grid.J * result.steps) * 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_1.json"))
    args = parser.parse_args(argv)
    if solver._load() is None:
        print("the compiled kernel could not be built; nothing to compare", file=sys.stderr)
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
    report = {"benchmark": "march", "unit": "ns per cell-step", "repeats": args.repeats,
              "environment": environment(), "rows": rows}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
