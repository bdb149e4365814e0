"""Benchmark of the hypiss command line, run in-process from a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One operation is the workload's sequence of ``hypiss.cli.main`` calls
(see ``workloads.py``).  A run writes the seeded scenario files, discards
one warm-up operation, then runs operations in a closed loop for
``--seconds`` seconds and checks every output.  With ``--trace 0`` it
also times set-up in fresh interpreters, spread over the same window.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
measured.  With ``--trace 1`` untraced and traced operations alternate:
the traced ones give the per-layer split (``spans.py``), and the ratio of
the two medians is the tracing overhead.

The full report, every metric with its unit, the inputs' sha256 and the
environment, is printed as indented JSON.  The last line is the result
object, whose metrics are the ones ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
MIN_OPS = 3          # per kind of operation, so a median exists however slow it is
E2E_UNITS = {
    "op_s_p50": "s", "op_s_p75": "s", "op_s_tail": "s", "cell_steps_per_s": "1/s",
    "cells_certified_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_hypiss():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hypiss" / "__init__.py").is_file():
        _fail(f"no hypiss sources under {src}")
    missing = [name for name in workloads.SHIPPED.values()
               if not (ROOT / "scenarios" / name).is_file()]
    if missing:
        _fail(f"shipped scenario files missing: {missing}")
    sys.path.insert(0, str(src))
    import hypiss
    import hypiss.cli
    if Path(hypiss.__file__).resolve().parent != (src / "hypiss").resolve():
        _fail(f"imported hypiss from {hypiss.__file__}, not from {src}")
    return hypiss


def _declared_metrics(key: str, units: dict) -> dict:
    """Names and units that BENCHMARK.json asks for under ``key``."""
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]}
    wrong = {n: u for n, u in declared.items() if units.get(n) != u}
    if wrong:
        _fail(f"BENCHMARK.json {key} metrics not measured with these units: {wrong}")
    return declared


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment(threads_env) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model, "caches": caches, "HYPISS_THREADS": threads_env,
            "commit": commit}


def setup_probe(jobs) -> float:
    """Seconds to import hypiss and build the inputs in a fresh interpreter."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(ROOT), *jobs]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


class Runner:
    """Runs and checks operations; CLI output and log records go to memory."""

    def __init__(self, hypiss, workload: str, seed: int, argvs, out: Path):
        self.hypiss = hypiss
        self.workload, self.seed, self.argvs, self.out = workload, seed, argvs, out
        self.attempted = 0
        self.errors = []
        self.log = logging.StreamHandler(io.StringIO())
        logger = logging.getLogger("hypiss")
        logger.addHandler(self.log)
        logger.propagate = False

    def op(self, recorder=None) -> float:
        """Run one operation, wrapped by ``recorder`` when given; returns
        its wall time.  Output checks run after the clock stops."""
        gc.collect()
        sink = io.StringIO()
        self.log.setStream(sink)
        self.attempted += 1
        codes, problems = [], []
        with spans.installed(recorder, self.hypiss) if recorder else nullcontext():
            start = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    for argv in self.argvs:
                        codes.append(self.hypiss.cli.main(argv))
            except (Exception, SystemExit) as exc:
                problems.append(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        if not problems:
            try:
                problems = workloads.check(self.workload, self.seed, self.out, codes)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.errors.append({"op": self.attempted, "problems": problems})
        return elapsed


def percentile(times, p: float) -> float:
    """Nearest-rank percentile: the smallest time that ``p`` % of ``times`` do not exceed."""
    return sorted(times)[math.ceil(p / 100 * len(times)) - 1]


def tail(times) -> dict:
    """Highest nearest-rank percentile with at least ten operations beyond it."""
    n = len(times)
    if n < 11:
        return {"value": None, "unit": "s", "percentile": None, "ops": n}
    return {"value": sorted(times)[n - 11], "unit": "s",
            "percentile": math.floor(100 * (n - 10) / n), "ops": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    hypiss = _import_hypiss()
    declared = (_declared_metrics("per_layer", spans.UNITS) if args.trace
                else _declared_metrics("end_to_end", E2E_UNITS))
    # the program's own default worker count is what gets measured
    threads_env = os.environ.pop("HYPISS_THREADS", None)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.write_inputs(args.workload, args.seed, ROOT / "scenarios", work / "inputs")
    jobs = workloads.setup_jobs(args.workload, files)
    if not args.trace:
        setup_probe(jobs)   # may still write bytecode caches; discarded

    runner = Runner(hypiss, args.workload, args.seed,
                    workloads.commands(args.workload, files, work / "out"), work / "out")
    warmup_s = runner.op()
    recorder = spans.Recorder() if args.trace else None
    untraced, traced, setup = [], {}, []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # set-up samples are spread over the run, so that one fast or slow
        # spell of the machine does not set all of them
        if not args.trace and len(setup) < SETUP_REPEATS and (
                elapsed >= len(setup) * args.seconds / SETUP_REPEATS or elapsed >= args.seconds):
            setup.append(setup_probe(jobs))
        elif recorder and len(untraced) > len(traced):
            recorder.op = runner.attempted + 1
            traced[recorder.op] = runner.op(recorder)
        elif (elapsed < args.seconds or len(untraced) < MIN_OPS
              or (recorder and len(traced) < MIN_OPS)):
            untraced.append(runner.op())
        else:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    op_s_p50 = statistics.median(untraced)
    throughput, per_op = workloads.work(args.workload)
    end_to_end = {
        "op_s_p50": {"value": op_s_p50, "unit": "s", "ops": len(untraced)},
        "op_s_p75": {"value": percentile(untraced, 75), "unit": "s", "ops": len(untraced)},
        "op_s_tail": tail(untraced),
        throughput: {"value": per_op / op_s_p50, "unit": "1/s", "work_per_op": per_op},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_ratio": {"value": len(runner.errors) / runner.attempted, "unit": "ratio"},
    }
    if setup:
        end_to_end["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                                 "samples": setup}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(threads_env),
        "inputs": {p.name: workloads.sha256(p) for p in files.values()},
        "warmup_op_s": warmup_s, "op_s": untraced, "end_to_end": end_to_end,
        "errors": runner.errors[:5],
    }
    if recorder:
        layers = spans.layer_report(recorder, traced, untraced)
        report["traced_op_s"] = list(traced.values())
        report["per_layer"] = {name: {"value": v, "unit": spans.UNITS[name]}
                               for name, v in layers.items()}
        spans_file = work / "spans.json"
        spans_file.write_text(json.dumps([asdict(s) for s in recorder.spans]), encoding="utf-8")
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        measured = report["per_layer"]
    else:
        measured = end_to_end
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not runner.errors, "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {name: {"value": measured[name]["value"], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
