"""Frozen outputs of every CLI command on the three shipped scenarios, and
on the test scenarios under ``scenarios/`` here, which between them set
every optional field that no shipped file uses.

Each scenario file is copied with ``grid.J = 50`` and given to ``certify``,
``sweep``, ``run --force --stride 500`` and ``table --J-list 50,100``.
Every file a command writes, its stdout and its exit code are compared
with the frozen copies under ``golden/cli/<scenario>/<command>/`` (stored
gzipped) and ``golden/cli/exit_codes.json``, under both march backends:

* the lines outside numbers, and the number of lines and of numbers,
  must be identical;
* a number may differ from its frozen value by at most 1e-13 relative,
  which leaves room for last-bit differences of ``np.exp`` or LAPACK on
  another CPU;
* a number whose value is unchanged must keep its text, so a change of
  format is caught.

The only field that depends on the backend, ``summary.json``'s
``march_backend``, must name the backend that ran.

Record again (only after an intended change of an output) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import gzip
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from hypiss.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
NAMES = ("linear_benchmark", "saint_venant", "isothermal_euler",
         "linear_tabulated", "linear_patterned_pulse", "saint_venant_physical_gains")
J = 50
COMMANDS = {
    "certify": [],
    "sweep": [],
    "run": ["--force", "--stride", "500"],
    "table": ["--J-list", "50,100"],
}
REL = 1e-13
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
BACKEND = re.compile(r'"march_backend": "\w+"')


def scenario_path(name: str) -> Path:
    """A shipped scenario file, or else the test scenario of that name."""
    shipped = ROOT / "scenarios" / f"{name}.json"
    return shipped if shipped.exists() else GOLDEN.parent.parent / "scenarios" / f"{name}.json"


def run_commands(tmp: Path) -> dict:
    """Runs every command; returns {"<scenario>/<command>": {file name: text}}
    with the stdout under "stdout", and the exit codes."""
    outputs, codes = {}, {}
    for name in NAMES:
        raw = json.loads(scenario_path(name).read_text(encoding="utf-8"))
        raw["grid"]["J"] = J
        scenario = tmp / f"{name}.json"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        for command, args in COMMANDS.items():
            key = f"{name}/{command}"
            out = tmp / key
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                codes[key] = cli_main([command, "--scenario", str(scenario),
                                       "--out", str(out), *args])
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
            outputs[key] = {**files, "stdout": stdout.getvalue()}
    return outputs, codes


def first_difference(got: str, want: str):
    """Where ``got`` breaks the rules above, as "line L, column C: ...", or None."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for row, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        g_nums, w_nums = list(NUMBER.finditer(g)), list(NUMBER.finditer(w))
        if NUMBER.split(g) != NUMBER.split(w) or len(g_nums) != len(w_nums):
            return f"line {row}: {g!r}, expected {w!r}"
        for gm, wm in zip(g_nums, w_nums):
            a, b = gm.group(), wm.group()
            if a == b:
                continue
            where = f"line {row}, column {gm.start() + 1}: {a}, expected {b}"
            if float(a) == float(b):
                return where + " (same value, other text)"
            if not math.isclose(float(a), float(b), rel_tol=REL, abs_tol=0.0):
                return where
    return None


def golden_outputs() -> dict:
    outputs = {}
    for path in sorted(GOLDEN.glob("*/*/*.gz")):
        key = f"{path.parent.parent.name}/{path.parent.name}"
        outputs.setdefault(key, {})[path.stem] = gzip.decompress(
            path.read_bytes()).decode("utf-8")
    return outputs


def test_outputs_match_golden(march_backend, tmp_path):
    got, codes = run_commands(tmp_path)
    want = golden_outputs()
    assert codes == json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert {k: sorted(v) for k, v in got.items()} == {k: sorted(v) for k, v in want.items()}
    for key, files in want.items():
        for name, text in files.items():
            if name == "summary.json":
                text = BACKEND.sub(f'"march_backend": "{march_backend}"', text)
            diff = first_difference(got[key][name], text)
            assert diff is None, f"{key}/{name}: {diff}"


@pytest.mark.parametrize("got, caught", [
    ("0.1,2.5e-09", False),
    ("0.1,2.5000000000001e-09", False),         # 4e-14 relative
    ("0.10000000000000001,2.5e-09", True),     # the same value in '%.17g'
    ("0.1,2.500000000025e-09", True),          # 1e-11 relative
    ("0.1,2.5e-09,3", True),
    ("0.1;2.5e-09", True),
])
def test_first_difference(got, caught):
    want = "# hypiss-v1 tag\nx,C1\n0.1,2.5e-09"
    assert (first_difference(want.replace("0.1,2.5e-09", got), want) is not None) == caught


def record() -> None:
    import tempfile
    from hypiss import solver
    if solver._load() is None:
        sys.exit("record with the compiled march, so summary.json names it")
    with tempfile.TemporaryDirectory() as tmp:
        outputs, codes = run_commands(Path(tmp))
    for key, files in outputs.items():
        (GOLDEN / key).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (GOLDEN / key / f"{name}.gz").write_bytes(
                gzip.compress(text.encode("utf-8"), mtime=0))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    record()
