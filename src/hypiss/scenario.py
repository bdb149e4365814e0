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
from typing import Any, Optional

import numpy as np

from .core import DisturbanceSignal, WeightField
from .models import (EulerParams, SaintVenantParams, Scenario,
                     build_linear_benchmark, euler_scenario,
                     saint_venant_scenario)

__all__ = ["ScenarioError", "ScenarioSpec", "load_scenario"]


class ScenarioError(ValueError):
    """Unusable scenario file; the message names the offending field."""


def _name(context: str, key: str) -> str:
    return f"{context}.{key}" if context else key


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"missing field '{_name(context, key)}'")
    return mapping[key]


def _number(mapping: dict, key: str, context: str, default: Optional[float] = None) -> float:
    """A finite number field; ``default`` (when given) covers a missing key."""
    v = mapping.get(key, default) if default is not None else _require(mapping, key, context)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(f"field '{_name(context, key)}' must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ScenarioError(f"field '{_name(context, key)}' must be finite, got {v!r}")
    return float(v)


def _object(mapping: dict, key: str, context: str) -> dict:
    """An object (section) field."""
    value = _require(mapping, key, context)
    if not isinstance(value, dict):
        raise ScenarioError(f"field '{_name(context, key)}' must be an object, got {value!r}")
    return value


def _floats(mapping: dict, key: str, context: str, shape: Optional[tuple] = None) -> tuple:
    """A finite number array field as nested tuples, so parsed values compare
    with ==; ``shape`` (when given) is the required array shape."""
    value = _require(mapping, key, context)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"field '{_name(context, key)}' must be an array of numbers, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"field '{_name(context, key)}' must be finite, got {value!r}")
    if shape is not None and arr.shape != shape:
        raise ScenarioError(
            f"field '{_name(context, key)}' must have shape {shape}, got {value!r}")
    return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.reshape(-1).tolist())


def _ic_profile(spec: Any, context: str, k: int):
    """Initial data of k components: a constant state, or a sine or cosine
    profile taking the (J,) interior centers to (J, k)."""
    if isinstance(spec, (list, tuple)):
        spec = {"kind": "constant", "values": list(spec)}
    if not isinstance(spec, dict):
        raise ScenarioError(f"field '{context}' must be an object or a list")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return _floats(spec, "values", context, (k,))
    if kind in ("sin", "cos"):
        amp = np.asarray(_floats(spec, "amplitude", context, (k,)))
        off = np.asarray(_floats(spec, "offset", context, (k,))) if "offset" in spec \
            else np.zeros_like(amp)
        freq = _number(spec, "frequency", context, 1.0)
        trig = np.sin if kind == "sin" else np.cos
        return lambda x: off + amp * trig(math.pi * freq * x)[:, None]
    raise ScenarioError(f"unknown initial-condition kind '{kind}' in '{context}'")


def _disturbance(spec: Any, k: int) -> DisturbanceSignal:
    context = "boundary.disturbance"
    if spec is None:
        return DisturbanceSignal.zero(k)
    if not isinstance(spec, dict):
        raise ScenarioError(f"field '{context}' must be an object")
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return DisturbanceSignal.zero(k)
    if kind == "constant":
        return DisturbanceSignal.constant(_floats(spec, "values", context, (k,)))
    if kind == "pulsed_sine":
        return DisturbanceSignal.pulsed_sine(
            k, amplitude=_number(spec, "amplitude", context, 0.01),
            cutoff=_number(spec, "cutoff", context, 5.0),
            pattern=_floats(spec, "pattern", context, (k,)) if "pattern" in spec else None)
    if kind == "table":
        times = np.asarray(_floats(spec, "times", context))
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
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
    path: Optional[str] = None
    _params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._params = self.params()   # checks every field but grid.J and grid.cfl

    @property
    def model_name(self) -> str:
        return self.raw["model"]["name"]

    def params(self) -> dict:
        """Keyword arguments of the model's builder, all but ``J`` and
        ``cfl``.  Optional fields the file leaves out are left out here
        too, so each default lives in the builder; ``mu`` is None when a
        linear file tabulates the weights.  A field that no line below
        reads is an error, so this parser is the file's schema."""
        raw = _Read(self.raw)
        grid, model, weights, boundary = (_object(raw, key, "")
                                          for key in ("grid", "model", "weights", "boundary"))
        name = _require(model, "name", "model")
        if name not in _BUILDERS:
            raise ScenarioError(f"unknown model '{name}'")
        table = name == "linear2x2" and "table" in weights
        params = {"l": _number(grid, "l", "grid"), "T": _number(grid, "T", "grid"),
                  "xi": _number(raw, "xi", "")}
        # table --J-list and --cfl override these two, so build() checks them
        grid.read.update(("J", "cfl"))
        if "mu" in weights or not table:
            params["mu"] = _number(weights, "mu", "weights")
        for key in ("p_plus", "p_minus"):
            if key in weights:
                params[key] = _floats(weights, key, "weights", (1,))
        if table:   # it wins over mu, p_plus and p_minus; build() checks its shape
            _floats(weights, "table", "weights")
            params["mu"] = None
        # the Saint-Venant and Euler builders take no disturbance yet
        b = _disturbance(boundary.get("disturbance"), 2)
        if name == "linear2x2":
            params.update(kappa12=_number(boundary, "kappa12", "boundary"),
                          kappa21=_number(boundary, "kappa21", "boundary"), b=b)
            for key, section, field, shape in (("speeds", "model", "speeds", (2,)),
                                               ("source", "model", "source", (2, 2)),
                                               ("m_diag", "boundary", "M", (2,))):
                if field in raw[section]:
                    params[key] = _floats(raw[section], field, section, shape)
            if "ic" in model:
                params["ic"] = _ic_profile(model["ic"], "model.ic", 2)
        elif name == "saint_venant":
            sv = SaintVenantParams(**{key: _number(model, key, "model")
                                      for key in ("g", "Cf", "Sb", "Hstar", "Vstar")
                                      if key in model})
            if "kappa_override" in model:
                params["kappa"] = _floats(model, "kappa_override", "model", (2,))
            elif "kappa12" in boundary or "kappa21" in boundary:
                params["kappa"] = (_number(boundary, "kappa12", "boundary"),
                                   _number(boundary, "kappa21", "boundary"))
            elif "k0" in boundary or "kl" in boundary:
                sv.k0 = _number(boundary, "k0", "boundary")
                sv.kl = _number(boundary, "kl", "boundary")
            params["params"] = sv
            # the builder's default is the shipped override; None selects the formula
            params["gamma_override"] = (_floats(model, "gamma_override", "model", (2, 2))
                                        if "gamma_override" in model else None)
            ic = _object(model, "ic", "model") if "ic" in model else {}
            if "H0" in ic:
                params["H0"] = _number(ic, "H0", "model.ic")
            if "V0" in ic:
                V0 = ic["V0"]   # a number or a one-component profile
                if isinstance(V0, (int, float)):
                    V0 = [_number(ic, "V0", "model.ic")]
                params["V0"] = _ic_profile(V0, "model.ic.V0", 1)
        else:
            params["params"] = EulerParams(**{key: _number(model, key, "model")
                                              for key in ("a", "f_over_D", "rho0", "q_star")
                                              if key in model})
            for key in ("kappa12", "kappa21"):
                if key in boundary:
                    params[key] = _number(boundary, key, "boundary")
        unread = raw.unread()
        if unread:
            raise ScenarioError(f"field '{unread}' is unknown for model '{name}' "
                                "or overridden by another field")
        return params

    def build(self, J: Optional[int] = None, cfl: Optional[float] = None) -> Scenario:
        grid_cfg = self.raw["grid"]
        weights_cfg = self.raw["weights"]
        if J is None:
            J = _number(grid_cfg, "J", "grid")
            if J != int(J) or J < 2:
                raise ScenarioError(
                    f"field 'grid.J' must be an integer >= 2, got {grid_cfg['J']!r}")
            J = int(J)
        cfl = float(cfl if cfl is not None else _number(grid_cfg, "cfl", "grid"))
        scenario = _BUILDERS[self.model_name](J=J, cfl=cfl, **self._params)
        if "table" in weights_cfg:
            table = np.asarray(weights_cfg["table"], dtype=float)
            if table.shape != (J + 2, scenario.coefficients.k):
                raise ScenarioError(
                    f"weights.table must have shape (J+2, k) = ({J + 2}, "
                    f"{scenario.coefficients.k}), got {table.shape}")
            scenario.weights = WeightField.from_samples(table)
        return scenario


def load_scenario(path: str) -> ScenarioSpec:
    """Parse a scenario file; raises ScenarioError with a line/field hint."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    text = p.read_bytes()
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
    return ScenarioSpec(raw=raw, path=str(p))
