"""Frozen Lyapunov series of the three shipped scenarios at J = 200.

Each scenario file is rebuilt with ``grid.J = 200`` and marched through
``hypiss run --force`` (Saint-Venant and Euler fail their certificates).
Every 100th level of the recorded ``L`` column, plus the last one, is
compared at relative 1e-12 against ``golden/lyapunov_J200.json``.  The
values were recorded before the step kernel was fused, so a change of
the kernel is checked against frozen numbers and not against a rerun of
itself.

Record again (only after an intended change of the numbers) with

    PYTHONPATH=src python tests/test_golden_lyapunov.py
"""

import csv
import json
import math
from pathlib import Path

import pytest

from hypiss.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "lyapunov_J200.json"
NAMES = ("linear_benchmark", "saint_venant", "isothermal_euler")
J = 200
EVERY = 100


def marched_series(name: str, tmp: Path) -> dict:
    raw = json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    raw["grid"]["J"] = J
    scenario = tmp / f"{name}.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp / name
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out), "--force"]) == 0
    with (out / "trace.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    N = len(rows) - 1
    levels = sorted(set(range(0, N + 1, EVERY)) | {N})
    return {"steps": N, "levels": levels, "L": [float(rows[n]["L"]) for n in levels]}


def check_golden(name: str, tmp: Path) -> None:
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = marched_series(name, tmp)
    assert got["steps"] == frozen["steps"]
    assert got["levels"] == frozen["levels"]
    for n, a, b in zip(got["levels"], got["L"], frozen["L"]):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), f"L^{n}: {a!r} != {b!r}"


@pytest.mark.parametrize("name", NAMES)
def test_lyapunov_series_matches_golden(name, tmp_path):
    check_golden(name, tmp_path)


def test_each_backend_matches_golden(march_backend, tmp_path):
    for name in NAMES:
        check_golden(name, tmp_path)
        summary = json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))
        assert summary["march_backend"] == march_backend


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        series = {name: marched_series(name, Path(tmp)) for name in NAMES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(series, indent=1) + "\n", encoding="utf-8")
