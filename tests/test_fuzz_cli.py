"""The CLI's exit-code contract under mutated scenario files.

Each example takes a shipped scenario or a test scenario, shrunk to J=20
and T=0.5, replaces one or two of its fields or array elements with values
from a fixed pool (wrong types, 0, huge and tiny numbers, strings, nested
lists and objects), and runs ``certify`` or ``sweep`` on it, then one of
``run --force``, ``run --force --stride 3`` and ``table --J-list 20,40``,
example ``i`` the ``i % 3``-th.  Whatever the file holds:

* ``main`` returns 0, 1 or 2 and raises nothing;
* on exit 2 the last line on stderr starts with ``scenario error:`` or
  ``error:``;
* a value that is not a number, where the file held a number, never
  exits 0;
* no run issues a warning, whatever its exit code: a huge or tiny number
  that loads (a gain of 1e308, a weight of 1e-320) either gives finite
  results or exits 2 naming the first quantity that is not finite (a
  ``table`` row names it and fails instead).

Example ``i`` is drawn from ``random.Random(SEEDS[i])`` alone, so the
examples are the same whichever tests ran before, and a frozen sha256 of
them fails the test when the stream changes (as a change of a scenario
file, of the pool or of the drawing does; record the new digest then).
Few of them reach an overflow, so a second test sets every numeric leaf
of every file in turn to 1e308 and to 1e-320, and runs ``certify``,
``sweep`` and ``run --force`` on each.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
import tempfile
import warnings
from pathlib import Path
from typing import Sequence

import pytest

from hypiss.cli import main

HERE = Path(__file__).resolve().parent
FILES = sorted((HERE.parent / "scenarios").glob("*.json")) + sorted(
    (HERE / "scenarios").glob("*.json"))
J = 20
POOL = (True, False, None, 0, 0.0, -1, 1e308, -1e308, 1e-320, 10**400, "x", "1.0", "",
        [], [1.0, "a"], [[1.0, 2.0]], [[[0.5]]], [1.0, True], {}, {"kind": "sin"},
        {"values": [1.0, 2.0]})


def _shrunk(path: Path) -> dict:
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["grid"].update(J=J, T=0.5)
    if "table" in raw["weights"]:
        raw["weights"]["table"] = raw["weights"]["table"][:J + 2]
    return raw


BASES = {path.stem: _shrunk(path) for path in FILES}


def _places(node, where=()):
    """Every (path, value) below ``node``: object fields and array elements."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield where + (key,), value
        if isinstance(value, (dict, list)):
            yield from _places(value, where + (key,))


PLACES = {name: list(_places(raw)) for name, raw in BASES.items()}
COMMANDS = ("certify", "sweep")
MARCHES = (("run", "--force"), ("run", "--force", "--stride", "3"),
           ("table", "--J-list", "20,40"))
SEEDS = range(200)
EXAMPLES_SHA256 = "395213ff595115c73909b834096d7c8316771915069afdf790ddff5d85df6dac"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at(raw, place):
    for key in place:
        raw = raw[key]
    return raw


def _mutant(seed: int):
    """(scenario name, mutated file, whether a number became a non-number,
    command), drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    name = rng.choice(sorted(BASES))
    raw = copy.deepcopy(BASES[name])
    numbers = []
    for _ in range(rng.randint(1, 2)):
        place, old = rng.choice(PLACES[name])
        value = copy.deepcopy(rng.choice(POOL))   # a later mutation may write into it
        try:
            _at(raw, place[:-1])[place[-1]] = value
        except (KeyError, IndexError, TypeError):   # an earlier mutation moved it
            continue
        if _is_number(old):
            numbers.append(place)
    number_lost = False
    for place in numbers:
        try:
            number_lost |= not _is_number(_at(raw, place))
        except (KeyError, IndexError, TypeError):   # a later mutation replaced a parent
            pass
    return name, raw, number_lost, rng.choice(COMMANDS)


def _exit_code(name: str, raw: dict, command: Sequence[str], tmp: str) -> int:
    """``main``'s exit code for ``command`` on ``raw``, after the checks that
    hold for every file."""
    scenario = Path(tmp) / f"{name}.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--scenario", str(scenario), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    if code == 2:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(("scenario error:", "error:")), last
    return code


def test_exit_code_contract():
    examples = [_mutant(seed) for seed in SEEDS]
    digest = hashlib.sha256(json.dumps(examples).encode()).hexdigest()
    assert digest == EXAMPLES_SHA256
    for seed, (name, raw, number_lost, command) in zip(SEEDS, examples):
        for argv in ((command,), MARCHES[seed % len(MARCHES)]):
            try:
                with tempfile.TemporaryDirectory() as tmp:
                    code = _exit_code(name, raw, argv, tmp)
                if number_lost:
                    assert code != 0
            except Exception as exc:
                pytest.fail(f"seed {seed}, {' '.join(argv)} on {json.dumps(raw)}: {exc!r}")


@pytest.mark.parametrize("command", [("certify",), ("sweep",), ("run", "--force")],
                         ids=["certify", "sweep", "run"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_every_number_huge_and_tiny(name, command):
    # the overflows and underflows that few random mutants reach: each
    # numeric leaf in turn set to 1e308 and to 1e-320
    with tempfile.TemporaryDirectory() as tmp:
        for place, old in PLACES[name]:
            for value in (1e308, 1e-320) if _is_number(old) else ():
                raw = json.loads(json.dumps(BASES[name]))
                _at(raw, place[:-1])[place[-1]] = value
                try:
                    _exit_code(name, raw, command, tmp)
                except Exception as exc:
                    pytest.fail(f"{'.'.join(map(str, place))} = {value!r}: {exc!r}")
