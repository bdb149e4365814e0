"""Scenario description files.

A scenario file is JSON (always supported) or TOML (on interpreters that
ship ``tomllib``) with the top-level keys ``grid``, ``model``,
``weights``, ``boundary`` and ``xi``.  The exact schema is documented in
the README; :class:`ScenarioSpec` keeps the parsed description around so
the same experiment can be rebuilt at a different resolution, which is
what the convergence-table command does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .core import DisturbanceSignal
from .models import (EulerParams, SaintVenantParams, Scenario,
                     build_linear_benchmark, euler_scenario,
                     saint_venant_kappa, saint_venant_scenario)

__all__ = ["ScenarioError", "ScenarioSpec", "load_scenario"]


class ScenarioError(ValueError):
    """Unusable scenario file; the message names the offending field."""


def _name(context: str, key: str) -> str:
    return f"{context}.{key}" if context else key


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"missing field '{_name(context, key)}'")
    return mapping[key]


def _object(mapping: dict, key: str, context: str) -> dict:
    """An object (section) field."""
    value = _require(mapping, key, context)
    if not isinstance(value, dict):
        raise ScenarioError(f"field '{_name(context, key)}' must be an object, got {value!r}")
    return value


def _floats(mapping: dict, key: str, context: str, shape: tuple = ()) -> Any:
    """A finite number field for ``shape`` (), or else a read-only array of
    finite numbers of ``shape``, with None for a free length.  Every element
    at every depth must be a JSON number, not a boolean or a string."""
    value = _require(mapping, key, context)
    name = _name(context, key)

    def numbers(v) -> bool:
        return (all(map(numbers, v)) if shape and isinstance(v, list)
                else isinstance(v, (int, float)) and not isinstance(v, bool))
    if not numbers(value):
        raise ScenarioError(f"field '{name}' must be "
                            f"{'an array of numbers' if shape else 'a number'}, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:   # a ragged array
        raise ScenarioError(f"field '{name}' must be an array of numbers, got {value!r}") from None
    except OverflowError:   # an integer beyond the double range
        arr = np.array(math.inf)
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"field '{name}' must be finite, got {value!r}")
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ScenarioError(f"field '{name}' must have shape "
                            f"{str(shape).replace('None', 'n')}, got {arr.shape}")
    arr.setflags(write=False)   # every build shares it
    return arr if shape else float(arr)


def _present(mapping: dict, context: str, **shapes: tuple) -> dict:
    """The fields of ``shapes`` that ``mapping`` holds, each read with its
    shape; a field left out keeps the default of the code it is passed to."""
    return {key: _floats(mapping, key, context, shape)
            for key, shape in shapes.items() if key in mapping}


def _ic_profile(mapping: dict, key: str, context: str, k: int):
    """Initial data of k components: a constant state, or a sine or cosine
    profile taking the (J,) interior centers to (J, k)."""
    spec, context = _object(mapping, key, context), _name(context, key)
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return _floats(spec, "values", context, (k,))
    if kind in ("sin", "cos"):
        amp = _floats(spec, "amplitude", context, (k,))
        shift = _present(spec, context, offset=(k,), frequency=())
        off, freq = shift.get("offset", np.zeros(k)), shift.get("frequency", 1.0)
        trig = np.sin if kind == "sin" else np.cos
        return lambda x: off + amp * trig(math.pi * freq * x)[:, None]
    raise ScenarioError(f"unknown initial-condition kind '{kind}' in '{context}'")


def _disturbance(boundary: dict, k: int) -> DisturbanceSignal:
    context = "boundary.disturbance"
    spec = _object(boundary, "disturbance", "boundary") if "disturbance" in boundary else {}
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return DisturbanceSignal.constant(np.zeros(k))
    if kind == "constant":
        return DisturbanceSignal.constant(_floats(spec, "values", context, (k,)))
    if kind == "pulsed_sine":
        return DisturbanceSignal.pulsed_sine(
            k, **_present(spec, context, amplitude=(), cutoff=(), pattern=(k,)))
    if kind == "table":
        times = _floats(spec, "times", context, (None,))
        if np.any(np.diff(times) <= 0):
            raise ScenarioError(f"field '{context}.times' must be a strictly increasing "
                                f"list, got {spec['times']!r}")
        return DisturbanceSignal.tabulated(times, _floats(spec, "values", context,
                                                          (times.size, k)))
    raise ScenarioError(f"unknown disturbance kind '{kind}' in '{context}'")


_BUILDERS = {"linear2x2": build_linear_benchmark, "saint_venant": saint_venant_scenario,
             "isothermal_euler": euler_scenario}


class _Read(dict):
    """A section of the file that records the keys read from it with ``[]``
    or ``.get``, nested sections included; ``in`` tests do not count."""

    def __init__(self, raw: dict):
        super().__init__((k, _Read(v) if isinstance(v, dict) else v) for k, v in raw.items())
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def unread(self, context: str = "") -> Optional[str]:
        """Dotted name of the first key nothing read, or None."""
        for key, value in self.items():
            if key not in self.read:
                return _name(context, key)
            if isinstance(value, _Read) and (name := value.unread(_name(context, key))):
                return name
        return None


@dataclass
class ScenarioSpec:
    """Parsed scenario description, rebuildable at other resolutions."""

    raw: dict
    _params: dict = field(init=False, repr=False, compare=False)
    _builder: Callable[..., Scenario] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._params = self.params()   # checks every field
        self._builder = _BUILDERS[self.raw["model"]["name"]]

    def params(self) -> dict:
        """Keyword arguments of the model's builder.  Optional fields the
        file leaves out are left out here too, so each default lives in
        the builder; when a linear file tabulates the weights, ``mu`` is
        None and ``table`` holds them.  A field that no line below reads
        is an error, so this parser is the file's schema."""
        raw = _Read(self.raw)
        grid, model, weights, boundary = (_object(raw, key, "")
                                          for key in ("grid", "model", "weights", "boundary"))
        name = _require(model, "name", "model")
        if not isinstance(name, str) or name not in _BUILDERS:
            raise ScenarioError(f"unknown model {name!r} in field 'model.name'")
        table = name == "linear2x2" and "table" in weights
        J = _floats(grid, "J", "grid")
        if J != int(J) or J < 2:
            raise ScenarioError(f"field 'grid.J' must be an integer >= 2, got {grid['J']!r}")
        params = {"J": int(J), "cfl": _floats(grid, "cfl", "grid"),
                  "l": _floats(grid, "l", "grid"), "T": _floats(grid, "T", "grid"),
                  "xi": _floats(raw, "xi", "")}
        if "mu" in weights or not table:
            params["mu"] = _floats(weights, "mu", "weights")
        params.update(_present(weights, "weights", p_plus=(1,), p_minus=(1,)))
        if table:   # it wins over mu, p_plus and p_minus; build() checks its row count
            params.update(mu=None, table=_floats(weights, "table", "weights", (None, 2)))
        # the Saint-Venant and Euler builders take no disturbance yet
        b = _disturbance(boundary, 2)
        if name == "linear2x2":
            params.update(kappa12=_floats(boundary, "kappa12", "boundary"),
                          kappa21=_floats(boundary, "kappa21", "boundary"), b=b,
                          **_present(model, "model", speeds=(2,), source=(2, 2)))
            if "M" in boundary:
                params["m_diag"] = _floats(boundary, "M", "boundary", (2,))
            if "ic" in model:
                params["ic"] = _ic_profile(model, "ic", "model", 2)
        elif name == "saint_venant":
            sv = SaintVenantParams(**_present(model, "model", g=(), Cf=(), Sb=(), Hstar=(),
                                              Vstar=()))
            if "kappa12" in boundary or "kappa21" in boundary:
                params["kappa"] = tuple(_floats(boundary, key, "boundary")
                                        for key in ("kappa12", "kappa21"))
            elif "k0" in boundary or "kl" in boundary:
                k0, kl = (_floats(boundary, key, "boundary") for key in ("k0", "kl"))
                sv.check_sub_critical()   # before the mapping divides by g
                try:
                    params["kappa"] = saint_venant_kappa(k0, kl, sv)
                except ValueError as exc:   # its message starts with k0 or kl
                    raise ScenarioError(f"boundary.{exc}") from None
            # the builder's default is the shipped override; None selects the formula
            params.update(params=sv, gamma_override=_present(
                model, "model", gamma_override=(2, 2)).get("gamma_override"))
            ic = _object(model, "ic", "model") if "ic" in model else {}
            params.update(_present(ic, "model.ic", H0=()))
            if "V0" in ic:   # a number or a one-component profile
                params["V0"] = (_ic_profile(ic, "V0", "model.ic", 1) if isinstance(ic["V0"], dict)
                                else (_floats(ic, "V0", "model.ic"),))
        else:
            params.update(params=EulerParams(**_present(model, "model", a=(), f_over_D=(),
                                                        rho0=(), q_star=())),
                          **_present(boundary, "boundary", kappa12=(), kappa21=()))
        if unread := raw.unread():
            raise ScenarioError(f"field '{unread}' is unknown for model '{name}' "
                                "or overridden by another field")
        return params

    def build(self, J: Optional[int] = None, cfl: Optional[float] = None) -> Scenario:
        """The scenario on the file's grid, or with ``J`` and ``cfl`` in its place."""
        params = dict(self._params)
        params.update((key, v) for key, v in (("J", J), ("cfl", cfl)) if v is not None)
        rows = len(params.get("table", ()))
        if rows and rows != params["J"] + 2:
            raise ScenarioError(f"weights.table must have shape (J+2, k) = "
                                f"({params['J'] + 2}, 2), got ({rows}, 2)")
        return self._builder(**params)


def load_scenario(path: str) -> ScenarioSpec:
    """Parse a scenario file; raises ScenarioError with a line/field hint."""
    p = Path(path)
    try:
        text = p.read_bytes()
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror}") from exc
    if p.suffix.lower() == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:
            raise ScenarioError(
                "TOML scenarios need Python >= 3.11 (tomllib); use JSON instead") from exc
        try:
            raw = tomllib.loads(text.decode("utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return ScenarioSpec(raw=raw)
