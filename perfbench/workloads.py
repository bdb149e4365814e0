"""The three benchmark workloads: seeded inputs, the CLI commands of one
operation, the work an operation does, and the checks on its outputs.

The seed changes only inputs that leave the work per operation unchanged:
initial data, disturbance amplitude, and feedback gains inside the C3
bounds.  It never changes J, T, cfl, stride or the J-list.  Seed 0 keeps
the shipped values; only the workload's fixed grid size is applied.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

SHIPPED = {
    "linear": "linear_benchmark.json",
    "saint_venant": "saint_venant.json",
    "euler": "isothermal_euler.json",
}

# Grid overrides per workload and scenario; None keeps the shipped grid.
GRIDS = {
    "table-linear": {"linear": None},
    "sv-trajectory": {"saint_venant": {"J": 400, "T": 5.0}},
    "certify-sweep": {key: {"J": 6400} for key in SHIPPED},
}
WORKLOADS = tuple(GRIDS)

J_LIST = (200, 400, 800, 1600)   # the CLI's default table rows
STRIDE = 100
SWEEP_POINTS = 20                # the CLI's default --xi-range steps

# Gain ranges sit inside the C3 bounds of each model at xi = 0.125
# (linear 0.943 / 0.531, Saint-Venant 0.588 / 0.850, Euler 0.882 / 0.567).
GAIN_RANGES = {
    "linear2x2": ((0.3, 0.85), (0.3, 0.48)),
    "saint_venant": ((0.3, 0.55), (0.6, 0.82)),
    "isothermal_euler": ((0.3, 0.8), (0.3, 0.53)),
}


def _perturb(raw: dict, rng: random.Random) -> None:
    model = raw["model"]
    boundary = raw["boundary"]
    (lo12, hi12), (lo21, hi21) = GAIN_RANGES[model["name"]]
    boundary["kappa12"] = rng.uniform(lo12, hi12)
    boundary["kappa21"] = rng.uniform(lo21, hi21)
    boundary["disturbance"]["amplitude"] = rng.uniform(0.005, 0.02)
    if model["name"] == "linear2x2":
        model["ic"]["values"] = [rng.uniform(-1.0, -0.25), rng.uniform(0.25, 1.0)]
    elif model["name"] == "saint_venant":
        model["ic"]["H0"] = rng.uniform(2.3, 2.7)
        model["ic"]["V0"]["amplitude"] = [rng.uniform(3.0, 5.0)]


def write_inputs(workload: str, seed: int, scenarios: Path, dest: Path) -> Dict[str, Path]:
    """Write the workload's scenario files for ``seed`` into ``dest``.

    A file whose content equals the shipped one is copied byte for byte,
    so seed 0 of ``table-linear`` hashes like the shipped file.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = {}
    for key, grid in GRIDS[workload].items():
        shipped = (scenarios / SHIPPED[key]).read_bytes()
        raw = json.loads(shipped)
        if grid:
            raw["grid"].update(grid)
        if seed != 0:
            _perturb(raw, rng)
        path = dest / SHIPPED[key]
        if raw == json.loads(shipped):
            path.write_bytes(shipped)
        else:
            path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        files[key] = path
    return files


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def commands(workload: str, files: Dict[str, Path], out: Path) -> List[List[str]]:
    """The CLI argument lists that make up one operation."""
    if workload == "table-linear":
        return [["table", "--scenario", str(files["linear"]), "--out", str(out / "table")]]
    if workload == "sv-trajectory":
        return [["run", "--scenario", str(files["saint_venant"]), "--out", str(out / "run"),
                 "--force", "--stride", str(STRIDE)]]
    return ([["certify", "--scenario", str(files[k]), "--out", str(out / f"certify-{k}")]
             for k in SHIPPED]
            + [["sweep", "--scenario", str(files[k]), "--out", str(out / f"sweep-{k}")]
               for k in SHIPPED])


EXPECTED_CODES = {
    "table-linear": [0],
    "sv-trajectory": [0],
    # the Saint-Venant and Euler certificates fail C2 by design
    "certify-sweep": [0, 1, 1, 0, 0, 0],
}


def work(workload: str) -> Tuple[str, int]:
    """The throughput metric of a workload and its work per operation:
    cell-steps marched, or cells certified by ``certify`` commands."""
    steps = GOLDEN["steps"]
    if workload == "table-linear":
        return "cell_steps_per_s", sum(J * steps[f"linear.J{J}"] for J in J_LIST)
    if workload == "sv-trajectory":
        return "cell_steps_per_s", 400 * steps["saint_venant.J400"]
    return "cells_certified_per_s", 6400 * len(SHIPPED)


def setup_jobs(workload: str, files: Dict[str, Path]) -> List[str]:
    """What the set-up probe loads and builds: each file at the J it runs at."""
    if workload == "table-linear":
        return [f"{files['linear']}@{J}" for J in J_LIST]
    return [str(path) for path in files.values()]


def _csv_rows(path: Path) -> List[List[str]]:
    """Data rows of a ``# hypiss-v1`` CSV (comment and header dropped)."""
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[2:]


def _count_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 2


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def scalars(workload: str, out: Path) -> dict:
    """The output numbers compared with the values recorded in ``golden.json``."""
    if workload == "table-linear":
        values = {}
        for J, sup, l2, _mu, eta in _csv_rows(out / "table" / "table.csv"):
            values.update({f"J{J}.sup_gap": float(sup), f"J{J}.l2_gap": float(l2),
                           f"J{J}.eta": float(eta)})
        return values
    if workload == "sv-trajectory":
        summary = _load(out / "run" / "summary.json")
        cert = _load(out / "run" / "certificate.json")
        return {"final_L": summary["final_L"], "L0": summary["L0"], "eta": summary["eta"],
                "nu": summary["nu"], "steps": summary["steps"],
                "kappa12_bound": cert["c3"]["kappa12_bound"],
                "kappa21_bound": cert["c3"]["kappa21_bound"]}
    values = {}
    for key in SHIPPED:
        cert = _load(out / f"certify-{key}" / "certificate.json")
        witness = cert["first_failure"]
        values.update({
            f"{key}.eta": cert["eta"], f"{key}.nu": cert["nu"],
            f"{key}.kappa12_bound": cert["c3"]["kappa12_bound"],
            f"{key}.kappa21_bound": cert["c3"]["kappa21_bound"],
            f"{key}.witness": None if witness is None
            else f"{witness['condition']}@{witness['j']}"})
    return values


def _mismatches(got: dict, want: dict) -> List[str]:
    errors = []
    for name, ref in want.items():
        value = got.get(name)
        if isinstance(ref, float) and isinstance(value, (int, float)):
            ok = math.isclose(value, ref, rel_tol=1e-9, abs_tol=0.0)
        else:
            ok = value == ref
        if not ok:
            errors.append(f"{name} = {value!r}, recorded {ref!r}")
    return errors


def _check_table(seed: int, out: Path) -> List[str]:
    ref = GOLDEN["reference"]
    rows = _csv_rows(out / "table" / "table.csv")
    if [int(r[0]) for r in rows] != list(J_LIST):
        return [f"table rows {[r[0] for r in rows]}, expected J = {list(J_LIST)}"]
    errors = []
    sups, l2s = [], []
    for J, sup, l2, _mu, eta in rows:
        if not (sup and l2 and eta):
            errors.append(f"J={J}: row failed")
            continue
        sup, l2, eta = float(sup), float(l2), float(eta)
        if not (math.isfinite(sup) and math.isfinite(l2) and sup > 0 and l2 > 0):
            errors.append(f"J={J}: gap norms {sup}, {l2} not finite and positive")
        if abs(eta - ref["eta"][J]) > ref["eta_abs_tol"]:
            errors.append(f"J={J}: eta {eta} off reference {ref['eta'][J]}")
        if seed == 0:
            for got, want, label in zip((sup, l2), ref["gap_norms"][J], ("sup", "l2")):
                if abs(got - want) > ref["gap_rel_tol"] * want:
                    errors.append(f"J={J}: {label} gap {got} off reference {want}")
        sups.append(sup)
        l2s.append(l2)
    if seed == 0 and not all(a > b for s in (sups, l2s) for a, b in zip(s, s[1:])):
        errors.append("gap norms not strictly decreasing in J")
    return errors


def _check_run(out: Path) -> List[str]:
    summary = _load(out / "run" / "summary.json")
    N = GOLDEN["steps"]["saint_venant.J400"]
    errors = []
    if not math.isfinite(summary["final_L"]):
        errors.append(f"final L = {summary['final_L']}")
    if summary["steps"] != N:
        errors.append(f"summary steps {summary['steps']}, expected N = {N}")
    snapshots = len(range(0, N + 1, STRIDE)) + (N % STRIDE != 0)
    rows = _count_rows(out / "run" / "trajectory.csv")
    if rows != snapshots * 400:
        errors.append(f"trajectory rows {rows}, expected {snapshots} x 400")
    return errors


def _check_certify_sweep(out: Path) -> List[str]:
    errors = []
    for key in SHIPPED:
        rows = _count_rows(out / f"sweep-{key}" / "sweep.csv")
        if rows != SWEEP_POINTS:
            errors.append(f"{key}: sweep rows {rows}, expected {SWEEP_POINTS}")
    return errors


def check(workload: str, seed: int, out: Path, codes: List[int]) -> List[str]:
    """Errors in one operation's exit codes and outputs; empty when correct."""
    if codes != EXPECTED_CODES[workload]:
        return [f"exit codes {codes}, expected {EXPECTED_CODES[workload]}"]
    if workload == "table-linear":
        errors = _check_table(seed, out)
    elif workload == "sv-trajectory":
        errors = _check_run(out)
    else:
        errors = _check_certify_sweep(out)
    golden = GOLDEN["scalars"][workload]
    got = scalars(workload, out)
    errors += _mismatches(got, golden["fixed"])
    errors += _mismatches(got, golden["by_seed"].get(str(seed), {}))
    return errors
