"""Core domain types: mesh, coefficient fields, disturbances, Lyapunov weights.

Conventions used throughout the package:

* A system of size ``k`` carries ``m`` components with positive transport
  speed first, followed by ``k - m`` components with negative speed.
* Spatial arrays hold ``J + 2`` samples: index ``0`` is the left ghost cell
  (center ``-dx/2``), indices ``1 .. J`` are the interior cells, index
  ``J + 1`` is the right ghost cell (center ``l + dx/2``).  The helper
  functions below always talk about "cell j" in the range ``-1 .. J`` and
  map to array index ``j + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Grid1D",
    "build_grid",
    "DisturbanceSignal",
    "SystemCoefficients",
    "sample_coefficients",
    "WeightField",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time mesh with ghost-cell centers and CFL bookkeeping.

    ``dt`` is derived from the Courant number: ``dt = cfl * dx / lambda_max``.
    The number of time steps is ``N = ceil(T / dt)``; the final step is
    shortened so the march lands exactly on ``T``.
    """

    l: float
    J: int
    T: float
    cfl: float
    lambda_max: float
    dx: float = field(init=False)
    dt: float = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        if self.l <= 0 or self.T <= 0:
            raise ValueError("domain length and final time must be positive")
        if self.J < 1:
            raise ValueError(f"cell count must be >= 1, got J={self.J}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"Courant number must lie in (0, 1], got {self.cfl}")
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        dx = self.l / self.J
        dt = self.cfl * dx / self.lambda_max
        ratio = self.T / dt
        # Exact divisions (up to round-off) must not spill into an extra
        # near-empty step.
        if abs(ratio - round(ratio)) < 1e-9 * max(1.0, ratio):
            N = int(round(ratio))
        else:
            N = int(math.ceil(ratio))
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "N", max(N, 1))

    @property
    def centers(self) -> np.ndarray:
        """Cell centers for j = -1 .. J (ghosts included), length J + 2."""
        return (np.arange(-1, self.J + 1) + 0.5) * self.dx

    def times(self) -> np.ndarray:
        """All time levels t^0 .. t^N as an array of length N + 1."""
        t = np.arange(self.N + 1) * self.dt
        t[-1] = self.T
        return t


def build_grid(l: float, J: int, T: float, cfl: float, lambda_max: float) -> Grid1D:
    """Validated mesh factory; rejects CFL violations and nonpositive sizes."""
    if J < 2:
        raise ValueError(f"need at least two cells, got J={J}")
    grid = Grid1D(l=l, J=J, T=T, cfl=cfl, lambda_max=lambda_max)
    assert grid.dt * lambda_max / grid.dx <= 1.0 + 1e-12
    return grid


class DisturbanceSignal:
    """Time-indexed boundary disturbance b(t) in R^k.

    Wraps a scalar-time callable and offers the constructors used by the
    built-in scenarios.  Each constructor records its arguments in
    ``description``; two signals are equal when they are the same object
    or share a nonempty description.
    """

    def __init__(self, k: int, fn: Callable[[float], np.ndarray], description: str = ""):
        self.k = k
        self.fn = fn
        self.description = description

    def __call__(self, t: float) -> np.ndarray:
        out = np.asarray(self.fn(t), dtype=float)
        if out.shape != (self.k,):
            raise ValueError(f"disturbance returned shape {out.shape}, expected ({self.k},)")
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DisturbanceSignal):
            return NotImplemented
        return self is other or (self.description != ""
                                 and self.description == other.description)

    @classmethod
    def zero(cls, k: int) -> "DisturbanceSignal":
        z = np.zeros(k)
        return cls(k, lambda t: z, f"zero({k})")

    @classmethod
    def constant(cls, values: Sequence[float]) -> "DisturbanceSignal":
        v = np.asarray(values, dtype=float)
        return cls(v.size, lambda t: v, f"constant({v.tolist()})")

    @classmethod
    def pulsed_sine(cls, k: int, amplitude: float = 0.01, cutoff: float = 5.0,
                    pattern: Optional[Sequence[float]] = None) -> "DisturbanceSignal":
        """amplitude * sin^2(pi t) for t < cutoff, zero afterwards.

        ``pattern`` distributes the scalar pulse over the k components;
        the default is (+1, -1, +1, ...) which realizes b1 = -b2 = d(t)
        for k = 2.
        """
        if pattern is None:
            pat = np.array([(-1.0) ** i for i in range(k)])
        else:
            pat = np.asarray(pattern, dtype=float)
            if pat.shape != (k,):
                raise ValueError("pattern length must equal k")

        def fn(t: float) -> np.ndarray:
            if t < cutoff:
                return pat * (amplitude * math.sin(math.pi * t) ** 2)
            return np.zeros(k)

        return cls(k, fn, f"pulsed_sine(amplitude={float(amplitude)!r}, "
                          f"cutoff={float(cutoff)!r}, pattern={pat.tolist()})")

    @classmethod
    def tabulated(cls, times: Sequence[float], values: Sequence[Sequence[float]]) -> "DisturbanceSignal":
        """Piecewise-linear interpolant of tabulated samples (constant outside)."""
        ts = np.asarray(times, dtype=float)
        vs = np.asarray(values, dtype=float)
        if vs.ndim != 2 or vs.shape[0] != ts.size:
            raise ValueError("values must be (len(times), k)")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("times must be strictly increasing")
        k = vs.shape[1]

        def fn(t: float) -> np.ndarray:
            return np.array([np.interp(t, ts, vs[:, i]) for i in range(k)])

        return cls(k, fn, f"tabulated({ts.tolist()}, {vs.tolist()})")


@dataclass
class SystemCoefficients:
    """Sampled transport speeds, source matrices and boundary data.

    Attributes
    ----------
    k, m : int
        System size and number of positive-speed components.
    lam : ndarray, shape (J+2, k)
        Signed diagonal speeds at cell/ghost centers j = -1 .. J.  The
        first m columns are strictly positive, the rest strictly negative.
    pi : ndarray, shape (J, k, k)
        Source matrices at interior cells j = 0 .. J-1.
    K : ndarray, shape (k, k)
        Boundary feedback matrix with zero diagonal blocks.
    M : ndarray, shape (k,)
        Diagonal of the disturbance injection matrix.
    b : DisturbanceSignal
    """

    k: int
    m: int
    lam: np.ndarray
    pi: np.ndarray
    K: np.ndarray
    M: np.ndarray
    b: DisturbanceSignal

    def __post_init__(self):
        self.lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        self.pi = np.asarray(self.pi, dtype=float)
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        self.M = np.asarray(self.M, dtype=float).reshape(self.k)
        k, m = self.k, self.m
        if not 0 <= m <= k:
            raise ValueError(f"m={m} outside 0..k={k}")
        if self.lam.shape[1] != k or self.pi.shape[1:] != (k, k) or self.K.shape != (k, k):
            raise ValueError("coefficient array shapes inconsistent with k")
        if self.lam.shape[0] != self.pi.shape[0] + 2:
            raise ValueError("lam must be sampled at J+2 centers, pi at J interior cells")
        if np.any(self.lam == 0):
            j = int(np.argwhere(self.lam == 0)[0][0]) - 1
            raise ValueError(f"zero characteristic speed sampled at cell j={j}")
        if np.any(self.lam[:, :m] < 0) or np.any(self.lam[:, m:] > 0):
            raise ValueError(
                "speed sign pattern violated: need the m positive speeds ordered "
                "before the k-m negative ones at every sample")
        if np.any(self.K[:m, :m] != 0) or np.any(self.K[m:, m:] != 0):
            raise ValueError("feedback matrix must have zero diagonal blocks")

    @property
    def J(self) -> int:
        return self.pi.shape[0]

    @property
    def max_abs_speed(self) -> float:
        return float(np.max(np.abs(self.lam)))


def sample_coefficients(lambda_fn: Callable[[float], Sequence[float]],
                        pi_fn: Callable[[float], Sequence[Sequence[float]]],
                        grid: Grid1D,
                        K: Optional[np.ndarray] = None,
                        M: Optional[Sequence[float]] = None,
                        b: Optional[DisturbanceSignal] = None) -> SystemCoefficients:
    """Sample continuous speed/source fields at cell and ghost centers.

    ``lambda_fn(x)`` must return the k signed diagonal speeds with a sign
    pattern that is constant in x (positive block first); a sign change or
    a zero entry anywhere on the sampled domain is rejected.  ``m`` is the
    number of positive speeds at the left ghost center.
    """
    xs = grid.centers
    lam = np.array([np.asarray(lambda_fn(x), dtype=float) for x in xs])
    if lam.ndim != 2:
        raise ValueError("lambda_fn must return a 1-D speed vector")
    k = lam.shape[1]
    m = int(np.sum(lam[0] > 0))
    pi = np.array([np.asarray(pi_fn(x), dtype=float) for x in xs[1:-1]])
    if K is None:
        K = np.zeros((k, k))
    if M is None:
        M = np.zeros(k)
    if b is None:
        b = DisturbanceSignal.zero(k)
    return SystemCoefficients(k=k, m=m, lam=lam, pi=pi, K=K, M=np.asarray(M, dtype=float), b=b)


@dataclass
class WeightField:
    """Diagonal Lyapunov weights P_j sampled at j = -1 .. J.

    Either built from explicit samples or from the implicit exponential
    form diag{p+ exp(-mu x), p- exp(mu x)} evaluated at cell and ghost
    centers.  ``mu`` stays populated in the implicit case so the certifier
    can use the closed-form decay rate.
    """

    values: np.ndarray
    mu: Optional[float] = None

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        bad = ~(np.isfinite(self.values) & (self.values > 0))
        if np.any(bad):
            row, col = np.argwhere(bad)[0]
            raise ValueError(
                f"Lyapunov weights must be finite and strictly positive; cell j={row - 1}, "
                f"component {col + 1} holds {float(self.values[row, col])!r}")

    @property
    def is_implicit(self) -> bool:
        return self.mu is not None

    @classmethod
    def implicit(cls, p_plus: Sequence[float], p_minus: Sequence[float],
                 mu: float, grid: Grid1D) -> "WeightField":
        if mu <= 0:
            raise ValueError("mu must be positive")
        pp = np.asarray(p_plus, dtype=float)
        pm = np.asarray(p_minus, dtype=float)
        if np.any(pp <= 0) or np.any(pm <= 0):
            raise ValueError("weight parameters must be strictly positive")
        xs = grid.centers
        vals = np.hstack([
            pp[None, :] * np.exp(-mu * xs)[:, None],
            pm[None, :] * np.exp(mu * xs)[:, None],
        ])
        return cls(values=vals, mu=mu)

    @classmethod
    def from_samples(cls, values: Sequence[Sequence[float]]) -> "WeightField":
        return cls(values=np.asarray(values, dtype=float))

    def interior(self) -> np.ndarray:
        """Weights at interior cells j = 0 .. J-1, shape (J, k)."""
        return self.values[1:-1]

    def eigen_bounds(self) -> tuple[float, float]:
        """(zeta, beta): min/max diagonal weight over the interior cells."""
        inner = self.interior()
        return float(inner.min()), float(inner.max())
