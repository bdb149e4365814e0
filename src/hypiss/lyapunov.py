"""Discrete weighted-L2 Lyapunov functional and its decay envelope.

:func:`build_trace` attaches to a recorded march the envelope built from
the certified decay rate ``eta``, the disturbance gain ``nu`` and the
splitting parameter ``xi``: at level n the bound is

    U^n = exp(-eta t^n) L^0 + (nu/eta)(1 + 1/xi) sup_{s<n} |b^s|^2,

a majorant of the one-step recursion y^{n+1} <= (1 - eta dt) y^n + dt z
with z = nu (1 + 1/xi) |b^n|^2, valid while eta dt < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .certifier import CertificateReport, _require_finite
from .models import Scenario
from .solver import SimulationResult

__all__ = [
    "LyapunovTrace",
    "build_trace",
    "envelope_gap_norms",
    "fit_decay_rate",
]


@dataclass
class LyapunovTrace:
    """Lyapunov series and its envelope.

    ``sup_b_sq[n]`` is sup_{s<n} |b^s|^2, the disturbance term of the
    envelope at level n.  ``l2_weight`` is the quadrature weight of the
    discrete time-L2 norm, fixed to dt/cfl (the Courant-free step
    dx/lambda_max).
    """

    times: np.ndarray
    L: np.ndarray
    envelope: Optional[np.ndarray]
    sup_b_sq: np.ndarray
    l2_weight: float


@np.errstate(all="ignore")     # a value that is not finite is named instead
def build_trace(result: SimulationResult, scenario: Scenario,
                report: CertificateReport) -> LyapunovTrace:
    """Attach the decay envelope to the Lyapunov series of a march.

    The envelope uses ``report.eta``, C1's rate, whenever C1 passes,
    certified or not (Saint-Venant's closed form, not its ratio); only
    when C1 fails does it use a positive per-cell ratio
    ``report.c1.eta_ratio``, and when neither is positive it is omitted.
    Raises ValueError naming the first level of ``sup_b_sq`` or of the
    envelope that is not finite.
    """
    eta = report.eta if report.eta is not None and report.eta > 0 else (
        report.c1.eta_ratio if report.c1.eta_ratio > 0 else None)
    sup_b_sq = np.concatenate([[0.0], np.maximum.accumulate(result.b_sq[:-1])])
    grid = scenario.grid
    env = None
    if eta is not None:
        if eta * grid.dt >= 1.0:
            raise ValueError(
                f"eta*dt = {eta * grid.dt:.6g} >= 1: discrete decay bound inapplicable")
        env = (np.exp(-eta * result.times) * result.lyapunov[0]
               + (report.nu / eta) * (1.0 + 1.0 / scenario.xi) * sup_b_sq)
    _require_finite({"sup_b_sq": sup_b_sq, "envelope": env}, "trace ")
    return LyapunovTrace(times=result.times, L=result.lyapunov, envelope=env,
                         sup_b_sq=sup_b_sq, l2_weight=grid.dt / grid.cfl)


@np.errstate(all="ignore")
def envelope_gap_norms(trace: LyapunovTrace) -> Tuple[float, float]:
    """(sup-norm, discrete L2 norm) of the envelope gap over all levels.

    The time norms are not forced by any single discretization; this
    package fixes the sup over levels and the weighted discrete L2
    sqrt(w sum_n (U^n - L^n)^2) with w = dt/cfl = dx/lambda_max, the
    Courant-free step.  That weight reproduces the reference tables of
    the shipped benchmark; a plain dt weight would deflate the CFL < 1
    columns by sqrt(cfl).  Raises ValueError when a norm is not finite.
    """
    if trace.envelope is None:
        raise ValueError("trace has no envelope")
    gap = trace.envelope - trace.L
    sup_norm = float(np.max(np.abs(gap)))
    l2_norm = float(np.sqrt(trace.l2_weight * np.sum(gap * gap)))
    _require_finite({"sup_gap": sup_norm, "l2_gap": l2_norm}, "envelope ")
    return sup_norm, l2_norm


def fit_decay_rate(trace: LyapunovTrace, t_start: float) -> float:
    """Decay rate from a least-squares fit of log L against t on [t_start, T].

    Returned positive for decaying series.  Requires at least ten strictly
    positive samples in the window.
    """
    mask = trace.times >= t_start
    if int(mask.sum()) < 10:
        raise ValueError("fit window holds fewer than 10 samples")
    L = trace.L[mask]
    if np.any(L <= 0):
        raise ValueError("nonpositive Lyapunov values in fit window")
    slope = np.polyfit(trace.times[mask], np.log(L), 1)[0]
    return float(-slope)
