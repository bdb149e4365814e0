"""Scenario builders: the constant-coefficient 2x2 benchmark, the
linearized Saint-Venant channel flow, and the linearized isothermal Euler
pipe flow with its Lambert-W equilibrium density.

All builders return a :class:`Scenario`, the complete input of both the
certifier and the solver.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (DisturbanceSignal, Grid1D, SystemCoefficients, WeightField,
                   build_grid, sample_coefficients)
from .lambertw import lambert_w_minus1

__all__ = [
    "Scenario",
    "build_linear_benchmark",
    "SaintVenantParams",
    "saint_venant_scenario",
    "EulerParams",
    "euler_scenario",
]

logger = logging.getLogger(__name__)

StateProfile = Union[Sequence[float], Callable[[float], Sequence[float]]]


@dataclass
class Scenario:
    """Everything needed to certify and run one experiment."""

    name: str
    grid: Grid1D
    coefficients: SystemCoefficients
    weights: WeightField
    xi: float
    initial: np.ndarray
    notes: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        self.initial = np.atleast_2d(np.asarray(self.initial, dtype=float))
        shape = (self.grid.J, self.coefficients.k)
        if self.initial.shape != shape:
            raise ValueError(f"initial data has shape {self.initial.shape}, "
                             f"expected (J, k) = {shape}")
        if self.weights.interior().shape != shape:
            raise ValueError(f"interior weights have shape {self.weights.interior().shape}, "
                             f"expected (J, k) = {shape}")


def build_linear_benchmark(J: int, cfl: float, T: float, mu: Optional[float], xi: float,
                           kappa12: float, kappa21: float,
                           l: float = 1.0,
                           speeds: Sequence[float] = (1.0, -1.0),
                           source: Sequence[Sequence[float]] = ((0.3, -0.1), (-0.1, 0.3)),
                           ic: StateProfile = (-0.5, 0.5),
                           p_plus: Sequence[float] = (1.0,),
                           p_minus: Sequence[float] = (1.0,),
                           m_diag: Sequence[float] = (1.0, 1.0),
                           b: Optional[DisturbanceSignal] = None) -> Scenario:
    """Constant-coefficient 2x2 benchmark with a pulsed boundary disturbance.

    Defaults reproduce the standard test problem: speeds diag(1, -1),
    symmetric source matrix, constant initial data (-0.5, 0.5), implicit
    exponential weights with p1 = p2 = 1, and the disturbance pair
    b1 = -b2 = 0.01 sin^2(pi t) switched off at t = 5.  ``ic`` is either a
    constant state or a profile x -> state; ``mu=None`` leaves unit
    weights in place of a table the caller supplies.
    """
    lam = np.asarray(speeds, dtype=float)
    if lam.shape != (2,) or not lam[0] > 0 > lam[1]:
        raise ValueError("benchmark needs one positive and one negative speed")
    gamma = np.asarray(source, dtype=float)
    grid = build_grid(l=l, J=J, T=T, cfl=cfl, lambda_max=float(np.max(np.abs(lam))))
    if b is None:
        b = DisturbanceSignal.pulsed_sine(2)
    K = np.array([[0.0, kappa12], [kappa21, 0.0]])
    coeffs = sample_coefficients(lambda x: lam, lambda x: gamma, grid,
                                 K=K, M=np.asarray(m_diag, dtype=float), b=b)
    weights = (WeightField.implicit(p_plus, p_minus, mu, grid) if mu is not None
               else WeightField.from_samples(np.ones((J + 2, 2))))
    if callable(ic):
        initial = np.array([ic(x) for x in grid.centers[1:-1]])
    else:
        initial = np.tile(np.asarray(ic, dtype=float), (J, 1))
    return Scenario(name="linear2x2", grid=grid, coefficients=coeffs,
                    weights=weights, xi=xi, initial=initial)


@dataclass
class SaintVenantParams:
    """Channel-flow model data around a constant sub-critical equilibrium."""

    g: float = 9.81
    Cf: float = 0.1
    Sb: float = 0.0459
    Hstar: float = 2.0
    Vstar: float = 3.0
    k0: Optional[float] = None
    kl: Optional[float] = None


def saint_venant_kappa(params: SaintVenantParams) -> Tuple[float, float]:
    """Feedback gains induced by the physical boundary gains k0, kl."""
    if params.k0 is None or params.kl is None:
        raise ValueError("physical boundary gains k0, kl not set")
    scale = math.sqrt(params.Hstar / params.g)
    s0, sl = params.k0 * scale, params.kl * scale
    kappa12 = (s0 - 1.0) / (1.0 + s0)
    kappa21 = (sl - 1.0) / (1.0 + sl)
    if abs(kappa12 - 1.0) < 1e-14 or abs(kappa21 - 1.0) < 1e-14:
        raise ValueError("boundary gain maps to the excluded value kappa = 1")
    return kappa12, kappa21


def saint_venant_scenario(J: int = 1600, cfl: float = 0.75, T: float = 10.0,
                          mu: float = 0.575, xi: float = 0.125,
                          params: Optional[SaintVenantParams] = None,
                          kappa: Optional[Tuple[float, float]] = None,
                          p_plus: Sequence[float] = (0.0992,),
                          p_minus: Sequence[float] = (0.2008,),
                          gamma_override: Optional[Sequence[Sequence[float]]] = ((0.0992, 0.2008),
                                                                                 (0.0992, 0.2008)),
                          l: float = 1.0,
                          H0: float = 2.5,
                          V0: Optional[Callable[[float], float]] = None) -> Scenario:
    """Channel-flow decay experiment around the constant equilibrium.

    The linearization has constant speeds V* +- sqrt(g H*) and a constant
    source matrix, so it is built as a constant-coefficient 2x2 system.
    ``gamma_override`` replaces the source matrix (a disagreement with the
    formula beyond 1e-6 is flagged in the notes; None selects the formula),
    ``kappa`` replaces the gains that ``params.k0``, ``params.kl`` map to
    (see :func:`saint_venant_kappa`), and the injection diagonal is
    (1 - kappa12, 1 - kappa21).  Defaults reproduce the shipped experiment:
    equilibrium H* = 2, V* = 3, source constants via override, weights
    (0.0992, 0.2008), gains kappa12 = 0.5 and kappa21 = 1.5 exp(-mu),
    initial depth 2.5 and velocity 4 sin(pi x).
    """
    params = params or SaintVenantParams()
    g, Cf, Sb, h, v = params.g, params.Cf, params.Sb, params.Hstar, params.Vstar
    if v * v >= g * h:
        raise ValueError(f"equilibrium not sub-critical: V*^2 = {v * v:.6g} >= "
                         f"g H* = {g * h:.6g}")
    c = math.sqrt(g * h)
    lam1, lam2 = v + c, v - c
    imbalance = (Sb * h - Cf * v * v) * g / h
    fric = g * Cf * v * v / (2.0 * h)
    lo = 2.0 / v - 1.0 / c
    hi = 2.0 / v + 1.0 / c
    gamma = np.array([
        [0.75 * imbalance / lam1 + fric * lo, 0.25 * imbalance / lam1 + fric * hi],
        [0.25 * imbalance / lam2 + fric * lo, 0.75 * imbalance / lam2 + fric * hi],
    ])
    notes: List[str] = []
    if gamma_override is not None:
        override = np.asarray(gamma_override, dtype=float)
        dev = float(np.max(np.abs(gamma - override)))
        if dev > 1e-6:
            msg = (f"source override differs from the sampled formula by up to "
                   f"{dev:.3g}; using the override")
            logger.warning(msg)
            notes.append(msg)
        gamma = override
    if kappa is None:
        kappa = (saint_venant_kappa(params) if (params.k0, params.kl) != (None, None)
                 else (0.5, 1.5 * math.exp(-mu)))
    kappa12, kappa21 = kappa
    if V0 is None:
        V0 = lambda x: 4.0 * math.sin(math.pi * x)
    scale = math.sqrt(g / h)

    def ic(x: float) -> Tuple[float, float]:
        dv, dh = V0(x) - v, H0 - h
        return dv + dh * scale, dv - dh * scale

    scenario = build_linear_benchmark(
        J=J, cfl=cfl, T=T, mu=mu, xi=xi, kappa12=kappa12, kappa21=kappa21, l=l,
        speeds=(lam1, lam2), source=gamma, ic=ic, p_plus=p_plus, p_minus=p_minus,
        m_diag=(1.0 - kappa12, 1.0 - kappa21))
    return replace(scenario, name="saint_venant", notes=notes)


@dataclass
class EulerParams:
    """Isothermal pipe-flow model data: sound speed, friction ratio and
    the equilibrium (rho*, q*) with q* constant."""

    a: float = 1.0
    f_over_D: float = 1.0
    rho0: float = 3.0
    q_star: float = 0.2

    def rho_star(self, x: float) -> float:
        """Equilibrium density via the branch -1 Lambert W closed form.

        With c = (a rho0 / q*)^2 and theta = (f/D)/2 the density is
        (q*/a) sqrt(-W_{-1}(-c exp(2 theta x - c))); the exponential
        argument is tiny in magnitude but stays inside the branch domain.
        """
        if self.q_star == 0.0:
            return self.rho0
        c = (self.a * self.rho0 / self.q_star) ** 2
        theta = self.f_over_D / 2.0
        z = -c * math.exp(2.0 * theta * x - c)
        if z == 0.0:
            raise ValueError("equilibrium argument underflows; parameters too extreme")
        w = lambert_w_minus1(z)
        return (abs(self.q_star) / self.a) * math.sqrt(-w)


def euler_scenario(J: int = 1600, cfl: float = 0.75, T: float = 10.0,
                   mu: float = 0.575, xi: float = 0.125,
                   params: Optional[EulerParams] = None,
                   kappa12: float = 0.5, kappa21: float = 0.5,
                   p_plus: Sequence[float] = (1.0,),
                   p_minus: Sequence[float] = (1.0,),
                   l: float = 1.0) -> Scenario:
    """Pipe-flow scenario with initial data cos(2 pi x) in both components.

    Speeds lambda1 = q*/rho* + a and lambda2 = q*/rho* - a must straddle
    zero at every sample.  Speed derivatives entering the source matrix
    are taken by centered differences with step dx/10 on the analytic
    equilibrium.  This is the shipped counterexample: its source matrices
    are not positive semi-definite, so certification fails at the source
    check.
    """
    params = params or EulerParams()
    a, fD, q = params.a, params.f_over_D, params.q_star
    rho = params.rho_star
    probe = np.linspace(-l / (2 * J), l + l / (2 * J), 257)
    lam_max = max(abs(q / rho(x)) + a for x in probe)
    grid = build_grid(l=l, J=J, T=T, cfl=cfl, lambda_max=lam_max)

    def lam1(x: float) -> float:
        return q / rho(x) + a

    def lam2(x: float) -> float:
        return q / rho(x) - a

    for x in grid.centers:
        if not lam2(x) < 0.0 < lam1(x):
            raise ValueError(f"speed sign condition violated at x={x:.6g}")

    h = grid.dx / 10.0

    def deriv(f: Callable[[float], float], x: float) -> float:
        return (f(x + h) - f(x - h)) / (2.0 * h)

    def gamma(x: float) -> np.ndarray:
        r = rho(x)
        l1, l2 = lam1(x), lam2(x)
        dl1, dl2 = deriv(lam1, x), deriv(lam2, x)
        drift = l2 * dl1 + l1 * dl2 + fD * q * q / (2.0 * r * r)
        mixing = 2.0 * q / (r * r) - fD * q / r
        half = 1.0 / (2.0 * a)
        return np.array([
            [-half * drift - half * l1 * mixing + half * dl2,
             +half * drift + half * l2 * mixing - half * dl2],
            [-half * drift - half * l1 * mixing + half * l1 * dl1,
             +half * drift + half * l1 * mixing - half * l2 * dl1],
        ])

    K = np.array([[0.0, kappa12], [kappa21, 0.0]])
    coeffs = sample_coefficients(lambda x: np.array([lam1(x), lam2(x)]), gamma, grid,
                                 K=K, M=np.ones(2), b=DisturbanceSignal.pulsed_sine(2))
    weights = WeightField.implicit(p_plus, p_minus, mu, grid)
    initial = np.array([[math.cos(2.0 * math.pi * x)] * 2 for x in grid.centers[1:-1]])
    return Scenario(name="isothermal_euler", grid=grid, coefficients=coeffs,
                    weights=weights, xi=xi, initial=initial)
