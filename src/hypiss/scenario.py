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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

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


def _floats(mapping: dict, key: str, context: str) -> tuple:
    """A finite number array field as nested tuples, so parsed values compare with ==."""
    value = _require(mapping, key, context)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"field '{_name(context, key)}' must be an array of numbers, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"field '{_name(context, key)}' must be finite, got {value!r}")
    return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.reshape(-1).tolist())


def _ic_profile(spec: Any, context: str):
    """Componentwise initial data: a constant state, or a sine or cosine
    profile x -> state."""
    if isinstance(spec, (list, tuple)):
        spec = {"kind": "constant", "values": list(spec)}
    if not isinstance(spec, dict):
        raise ScenarioError(f"field '{context}' must be an object or a list")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return _floats(spec, "values", context)
    if kind in ("sin", "cos"):
        amp = np.asarray(_floats(spec, "amplitude", context))
        off = np.asarray(_floats(spec, "offset", context)) if "offset" in spec \
            else np.zeros_like(amp)
        freq = _number(spec, "frequency", context, 1.0)
        trig = math.sin if kind == "sin" else math.cos
        return lambda x: off + amp * trig(math.pi * freq * x)
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
        return DisturbanceSignal.constant(_floats(spec, "values", context))
    if kind == "pulsed_sine":
        return DisturbanceSignal.pulsed_sine(
            k, amplitude=_number(spec, "amplitude", context, 0.01),
            cutoff=_number(spec, "cutoff", context, 5.0),
            pattern=_floats(spec, "pattern", context) if "pattern" in spec else None)
    if kind == "table":
        return DisturbanceSignal.tabulated(_floats(spec, "times", context),
                                           _floats(spec, "values", context))
    raise ScenarioError(f"unknown disturbance kind '{kind}'")


@dataclass
class ScenarioSpec:
    """Parsed scenario description, rebuildable at other resolutions."""

    raw: dict
    path: Optional[str] = None

    def __post_init__(self):
        for key in ("grid", "model", "weights", "boundary", "xi"):
            if key not in self.raw:
                raise ScenarioError(f"missing top-level field '{key}'")
        model = self.raw["model"]
        if not isinstance(model, dict) or "name" not in model:
            raise ScenarioError("field 'model' must be an object with a 'name'")
        if model["name"] not in ("linear2x2", "saint_venant", "isothermal_euler"):
            raise ScenarioError(f"unknown model '{model['name']}'")

    @property
    def model_name(self) -> str:
        return self.raw["model"]["name"]

    def _common(self) -> dict:
        """``l``, ``T``, ``xi`` and ``mu``, the last None when the file
        tabulates the weights."""
        grid, weights = self.raw["grid"], self.raw["weights"]
        return {"l": _number(grid, "l", "grid"), "T": _number(grid, "T", "grid"),
                "xi": _number(self.raw, "xi", ""),
                "mu": None if "table" in weights else _number(weights, "mu", "weights")}

    def linear_params(self) -> dict:
        """Keyword arguments of :func:`models.build_linear_benchmark`, all
        but ``J`` and ``cfl``, for a ``linear2x2`` file.  Optional fields
        the file leaves out are left out here too, so the builder's
        defaults apply."""
        model, boundary = self.raw["model"], self.raw["boundary"]
        params = {**self._common(),
                  "kappa12": _number(boundary, "kappa12", "boundary"),
                  "kappa21": _number(boundary, "kappa21", "boundary"),
                  "b": _disturbance(boundary.get("disturbance"), 2)}
        for name, section, key in (("speeds", "model", "speeds"), ("source", "model", "source"),
                                   ("p_plus", "weights", "p_plus"),
                                   ("p_minus", "weights", "p_minus"),
                                   ("m_diag", "boundary", "M")):
            if key in self.raw[section]:
                params[name] = _floats(self.raw[section], key, section)
        if "ic" in model:
            params["ic"] = _ic_profile(model["ic"], "model.ic")
        return params

    def build(self, J: Optional[int] = None, cfl: Optional[float] = None) -> Scenario:
        grid_cfg = self.raw["grid"]
        weights_cfg = self.raw["weights"]
        J = int(J if J is not None else _number(grid_cfg, "J", "grid"))
        cfl = float(cfl if cfl is not None else _number(grid_cfg, "cfl", "grid"))
        name = self.model_name
        if name == "linear2x2":
            scenario = build_linear_benchmark(J=J, cfl=cfl, **self.linear_params())
        elif "table" in weights_cfg:
            raise ScenarioError(f"{name} scenarios need implicit weights (mu)")
        elif name == "saint_venant":
            scenario = self._build_saint_venant(J, cfl)
        else:
            scenario = self._build_euler(J, cfl)

        if "table" in weights_cfg:
            table = np.asarray(_floats(weights_cfg, "table", "weights"))
            if table.shape != (J + 2, scenario.coefficients.k):
                raise ScenarioError(
                    f"weights.table must have shape (J+2, k) = ({J + 2}, "
                    f"{scenario.coefficients.k}), got {table.shape}")
            scenario.weights = WeightField.from_samples(table)
        return scenario

    def _p(self, default: Tuple[float, float]) -> Tuple[float, float]:
        """(p+, p-) of a physical model: the first entry of each weight list."""
        weights = self.raw["weights"]
        return tuple(_floats(weights, key, "weights")[0] if key in weights else d
                     for key, d in zip(("p_plus", "p_minus"), default))

    def _build_saint_venant(self, J: int, cfl: float) -> Scenario:
        model, boundary = self.raw["model"], self.raw["boundary"]
        params = SaintVenantParams(
            g=_number(model, "g", "model", 9.81),
            Cf=_number(model, "Cf", "model", 0.1),
            Sb=_number(model, "Sb", "model", 0.0459),
            Hstar=_number(model, "Hstar", "model", 2.0),
            Vstar=_number(model, "Vstar", "model", 3.0),
            k0=model.get("k0"), kl=model.get("kl"))
        kappa = None
        if "kappa_override" in model:
            kappa = _floats(model, "kappa_override", "model")
            if len(kappa) != 2:
                raise ScenarioError("model.kappa_override must be [kappa12, kappa21]")
        elif "kappa12" in boundary and "kappa21" in boundary:
            kappa = (_number(boundary, "kappa12", "boundary"),
                     _number(boundary, "kappa21", "boundary"))
        elif "k0" in boundary or "kl" in boundary:
            params.k0 = _number(boundary, "k0", "boundary")
            params.kl = _number(boundary, "kl", "boundary")
        gamma_override = (_floats(model, "gamma_override", "model")
                          if "gamma_override" in model else None)
        ic_cfg = model.get("ic", {})
        V0 = ic_cfg.get("V0")
        if isinstance(V0, (int, float)):
            V0 = _number(ic_cfg, "V0", "model.ic")
        elif V0 is not None:
            profile = _ic_profile(V0, "model.ic.V0")
            V0 = (lambda x: float(profile(x)[0])) if callable(profile) else profile[0]
        return saint_venant_scenario(
            J=J, cfl=cfl, **self._common(), params=params, kappa=kappa,
            p=self._p((0.0992, 0.2008)), gamma_override=gamma_override,
            H0=_number(ic_cfg, "H0", "model.ic", 2.5), V0=V0)

    def _build_euler(self, J: int, cfl: float) -> Scenario:
        model, boundary = self.raw["model"], self.raw["boundary"]
        params = EulerParams(
            a=_number(model, "a", "model", 1.0),
            f_over_D=_number(model, "f_over_D", "model", 1.0),
            rho0=_number(model, "rho0", "model", 3.0),
            q_star=_number(model, "q_star", "model", 0.2))
        kappa = (_number(boundary, "kappa12", "boundary", 0.5),
                 _number(boundary, "kappa21", "boundary", 0.5))
        return euler_scenario(J=J, cfl=cfl, **self._common(), params=params,
                              kappa=kappa, p=self._p((1.0, 1.0)))


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
