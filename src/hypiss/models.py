"""Scenario builders: the constant-coefficient 2x2 benchmark, the
linearized Saint-Venant channel flow, and the linearized isothermal Euler
pipe flow with its Lambert-W equilibrium density.

All builders return a :class:`Scenario`, the complete input of both the
certifier and the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from .core import DisturbanceSignal, Grid1D, SystemCoefficients, WeightField
from .lambertw import lambert_w_minus1

__all__ = [
    "Scenario",
    "build_linear_benchmark",
    "SaintVenantParams",
    "saint_venant_scenario",
    "EulerParams",
    "euler_scenario",
]

# A constant state, or a profile taking the (J,) interior centers to (J, k).
StateProfile = Union[Sequence[float], Callable[[np.ndarray], np.ndarray]]


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
        if self.coefficients.J != self.grid.J:
            raise ValueError(f"coefficients are sampled on J={self.coefficients.J} cells, "
                             f"the grid has J={self.grid.J}")
        self.initial = np.atleast_2d(np.asarray(self.initial, dtype=float))
        shape = (self.grid.J, self.coefficients.k)
        if self.initial.shape != shape:
            raise ValueError(f"initial data has shape {self.initial.shape}, "
                             f"expected (J, k) = {shape}")
        if not np.all(np.isfinite(self.initial)):
            raise ValueError("initial data is not finite")
        if self.weights.interior().shape != shape:
            raise ValueError(f"interior weights have shape {self.weights.interior().shape}, "
                             f"expected (J, k) = {shape}")


def build_linear_benchmark(J: int = 1600, cfl: float = 0.75, T: float = 10.0,
                           mu: Optional[float] = 0.575, xi: float = 0.125,
                           kappa12: float = 0.5, kappa21: float = 0.5,
                           l: float = 1.0,
                           speeds: ArrayLike = (1.0, -1.0),
                           source: ArrayLike = ((0.3, -0.1), (-0.1, 0.3)),
                           ic: StateProfile = (-0.5, 0.5),
                           p_plus: Sequence[float] = (1.0,),
                           p_minus: Sequence[float] = (1.0,),
                           m_diag: Sequence[float] = (1.0, 1.0),
                           b: Optional[DisturbanceSignal] = None,
                           table: Optional[ArrayLike] = None) -> Scenario:
    """Linear 2x2 system with one positive and one negative speed.

    Defaults reproduce the standard test problem, the shipped benchmark:
    J = 1600, cfl 0.75, T = 10, xi = 0.125, gains kappa12 = kappa21 = 0.5,
    speeds diag(1, -1), symmetric source matrix, constant initial data
    (-0.5, 0.5), implicit weights with p1 = p2 = 1 and mu = 0.575, and
    the disturbance pair b1 = -b2 = 0.01 sin^2(pi t) switched off at
    t = 5.  ``speeds`` is one pair or one pair per cell center, shape
    (J+2, 2); ``source`` is one matrix or one per interior cell, shape
    (J, 2, 2).  ``ic`` is either a constant state or a profile.
    ``mu=None`` selects the tabulated weights ``table``, shape (J+2, 2),
    or unit weights without one.
    """
    lam = np.asarray(speeds, dtype=float)
    grid = Grid1D(l=l, J=J, T=T, cfl=cfl, lambda_max=float(np.max(np.abs(lam))))
    if b is None:
        b = DisturbanceSignal.pulsed_sine(2)
    coeffs = SystemCoefficients(
        k=2, m=1, lam=np.broadcast_to(lam, (J + 2, 2)).copy(),
        pi=np.broadcast_to(np.asarray(source, dtype=float), (J, 2, 2)).copy(),
        K=np.array([[0.0, kappa12], [kappa21, 0.0]]), M=m_diag, b=b)
    weights = (WeightField.implicit(p_plus, p_minus, mu, grid) if mu is not None
               else WeightField(np.ones((J + 2, 2)) if table is None else table))
    with np.errstate(over="ignore", invalid="ignore"):   # Scenario checks the result
        initial = ic(grid.centers[1:-1]) if callable(ic) else np.tile(ic, (J, 1))
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

    def check_sub_critical(self) -> None:
        """Raises a ValueError unless V*^2 < g H*, which also keeps g and H* nonzero."""
        if self.Vstar * self.Vstar >= self.g * self.Hstar:
            raise ValueError(f"equilibrium not sub-critical: V*^2 = "
                             f"{self.Vstar * self.Vstar:.6g} >= g H* = {self.g * self.Hstar:.6g}")


def saint_venant_kappa(k0: float, kl: float,
                       params: SaintVenantParams) -> Tuple[float, float]:
    """Feedback gains induced by the physical boundary gains k0, kl; a gain
    mapped to kappa = inf or 1 raises a ValueError whose message starts with its name."""
    scale = math.sqrt(params.Hstar / params.g)
    kappa = []
    for name, gain in (("k0", k0), ("kl", kl)):
        s = gain * scale
        kappa.append((s - 1.0) / (1.0 + s) if s != -1.0 else math.inf)
        if kappa[-1] == math.inf or abs(kappa[-1] - 1.0) < 1e-14:
            raise ValueError(f"{name} = {gain!r} maps to the excluded value kappa = {kappa[-1]:g}")
    return kappa[0], kappa[1]


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
                          V0: Optional[StateProfile] = None) -> Scenario:
    """Channel-flow decay experiment around the constant equilibrium.

    The linearization has constant speeds V* +- sqrt(g H*) and a constant
    source matrix, so it is built as a constant-coefficient 2x2 system.
    ``gamma_override`` replaces the source matrix (a disagreement with the
    formula beyond 1e-6 is flagged in the notes; None selects the formula),
    ``kappa`` is the pair of feedback gains (:func:`saint_venant_kappa`
    maps physical gains to it), and the injection diagonal is
    (1 - kappa12, 1 - kappa21).  Defaults reproduce the shipped experiment:
    equilibrium H* = 2, V* = 3, source constants via override, weights
    (0.0992, 0.2008), gains kappa12 = 0.5 and kappa21 = 1.5 exp(-mu),
    initial depth 2.5 and velocity 4 sin(pi x).  ``V0`` is a one-component
    state profile, like ``ic`` of :func:`build_linear_benchmark`.
    """
    params = params or SaintVenantParams()
    params.check_sub_critical()
    g, Cf, Sb, h, v = params.g, params.Cf, params.Sb, params.Hstar, params.Vstar
    c = math.sqrt(g * h)
    lam1, lam2 = v + c, v - c
    imbalance = (Sb * h - Cf * v * v) * g / h
    # friction g Cf v^2 / (2h) times (2/v -+ 1/c), written to stay finite at v = 0
    lo = g * Cf * (v / h - v * v / (2.0 * h * c))
    hi = g * Cf * (v / h + v * v / (2.0 * h * c))
    gamma = np.array([
        [0.75 * imbalance / lam1 + lo, 0.25 * imbalance / lam1 + hi],
        [0.25 * imbalance / lam2 + lo, 0.75 * imbalance / lam2 + hi],
    ])
    notes: List[str] = []
    if gamma_override is not None:
        override = np.asarray(gamma_override, dtype=float)
        dev = float(np.max(np.abs(gamma - override)))
        if dev > 1e-6:
            notes.append(f"source override differs from the sampled formula by up to "
                         f"{dev:.3g}; using the override")
        gamma = override
    kappa12, kappa21 = kappa if kappa is not None else (0.5, 1.5 * math.exp(-mu))
    if V0 is None:
        V0 = lambda x: 4.0 * np.sin(np.pi * x)[:, None]
    dh = (H0 - h) * math.sqrt(g / h)

    def to_w(v0: np.ndarray) -> np.ndarray:
        return np.concatenate([v0 - v + dh, v0 - v - dh], axis=-1)

    ic = (lambda x: to_w(V0(x))) if callable(V0) else to_w(np.asarray(V0, dtype=float))

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

    def rho_star(self, x: ArrayLike) -> np.ndarray:
        """Equilibrium density at each position in ``x``, via the branch -1
        Lambert W closed form.

        With c = (a rho0 / q*)^2 and theta = (f/D)/2 the density is
        (q*/a) sqrt(-W_{-1}(-c exp(2 theta x - c))); the exponential
        argument is tiny in magnitude but stays inside the branch domain.
        """
        x = np.asarray(x, dtype=float)
        if self.q_star == 0.0:
            return np.full(x.shape, self.rho0)
        ratio = self.a * self.rho0 / self.q_star
        c, theta = ratio * ratio, self.f_over_D / 2.0
        with np.errstate(over="ignore", invalid="ignore"):   # Lambert W checks the domain
            z = -c * np.exp(2.0 * theta * x - c)   # nan where c = inf, 0 on an underflow
        try:
            w = lambert_w_minus1(z)
        except ValueError as exc:
            raise ValueError(f"equilibrium argument out of range at c = {c:g}: rho0 = "
                             f"{self.rho0!r} and q_star = {self.q_star!r} are too extreme: "
                             f"{exc}") from None
        return (abs(self.q_star) / self.a) * np.sqrt(-w)


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
    equilibrium.  This is the shipped counterexample to the sufficient
    source condition C2: its source matrices are not positive
    semi-definite, so certification fails at the source check.  That is
    not a proof that the system lacks the ISS property.
    """
    if J != int(J) or J < 2 or not l > 0:     # checked here: dx = l / J comes before the grid
        raise ValueError(f"J must be an integer >= 2 and l positive, got J={J!r}, l={l!r}")
    params = params or EulerParams()
    a, fD, q = params.a, params.f_over_D, params.q_star
    half = 1.0 / (2.0 * a) if a > 0 else math.inf
    if not (half < math.inf and params.rho0 > 0):
        raise ValueError(f"a and rho0 must be positive, with 1/(2a) finite; "
                         f"got a = {a!r}, rho0 = {params.rho0!r}")
    dx = l / J
    h = dx / 10.0
    x = (np.arange(-1, J + 1) + 0.5) * dx      # the grid's cell centers
    rho, ahead, behind = (params.rho_star(x + shift) for shift in (0.0, h, -h))
    lam = np.stack([q / rho + a, q / rho - a], axis=1)
    dl1 = ((q / ahead + a) - (q / behind + a))[1:-1] / (2.0 * h)
    dl2 = ((q / ahead - a) - (q / behind - a))[1:-1] / (2.0 * h)
    r = rho[1:-1]
    l1, l2 = lam[1:-1].T
    drift = l2 * dl1 + l1 * dl2 + fD * q * q / (2.0 * r * r)
    mixing = 2.0 * q / (r * r) - fD * q / r
    gamma = np.stack([
        np.stack([-half * drift - half * l1 * mixing + half * dl2,
                  +half * drift + half * l2 * mixing - half * dl2], axis=-1),
        np.stack([-half * drift - half * l1 * mixing + half * l1 * dl1,
                  +half * drift + half * l1 * mixing - half * l2 * dl1], axis=-1),
    ], axis=1)
    scenario = build_linear_benchmark(
        J=J, cfl=cfl, T=T, mu=mu, xi=xi, kappa12=kappa12, kappa21=kappa21, l=l,
        speeds=lam, source=gamma, p_plus=p_plus, p_minus=p_minus,
        ic=lambda x: np.repeat(np.cos(2.0 * np.pi * x)[:, None], 2, axis=1))
    return replace(scenario, name="isothermal_euler")
