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
    "DisturbanceSignal",
    "SystemCoefficients",
    "WeightField",
    "courant_number",
    "same_in_every_cell",
]


def courant_number(cfl: float) -> float:
    """``cfl`` if it lies in (0, 1]; ValueError otherwise."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"Courant number must lie in (0, 1], got {cfl}")
    return cfl


def same_in_every_cell(*arrays: np.ndarray) -> bool:
    """Whether each float64 array, indexed by cell or sample along its first
    axis, holds its first sample at every other one, bit for bit, so that
    -0.0 and 0.0 differ and a NaN equals itself."""
    return all(np.all(a.view(np.uint64) == a[:1].view(np.uint64)) for a in arrays)


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
        for name, value in (("grid.l", self.l), ("grid.T", self.T)):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.J < 2:
            raise ValueError(f"need at least two cells, got J={self.J}")
        courant_number(self.cfl)
        if not 0 < self.lambda_max < math.inf:
            raise ValueError(f"lambda_max must be positive and finite, got {self.lambda_max!r}")
        dx = self.l / self.J
        dt = self.cfl * dx / self.lambda_max
        ratio = self.T / dt if dt > 0 else math.inf
        if ratio == math.inf:
            raise ValueError(f"grid.T / dt overflows at dt = {dt!r} from grid.l and grid.cfl")
        # Exact divisions (up to round-off) must not spill into an extra
        # near-empty step.
        if abs(ratio - round(ratio)) < 1e-9 * max(1.0, ratio):
            N = int(round(ratio))
        else:
            N = int(math.ceil(ratio))
        if N > 10**8:   # run's per-level arrays take (k + 3) * 8 * (N + 1) bytes, 4 GB at k = 2
            raise ValueError(f"grid.T = {self.T!r} and grid.cfl = {self.cfl!r} give N = {N:.3g} "
                             "time steps, more than 10^8")
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


class DisturbanceSignal:
    """Time-indexed boundary disturbance b(t) in R^k.

    Wraps a callable that samples every time in an array at once,
    returning shape ``t.shape + (k,)``, and offers the constructors used
    by the built-in scenarios.  Two signals are compared by their samples,
    as ``reports.reference_values`` does at a grid's time levels.
    """

    def __init__(self, k: int, fn: Callable[[np.ndarray], np.ndarray]):
        self.k = k
        self.fn = fn

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t), dtype=float)
        if out.shape != t.shape + (self.k,):
            raise ValueError(f"disturbance returned shape {out.shape}, "
                             f"expected {t.shape + (self.k,)}")
        return out

    @classmethod
    def constant(cls, values: Sequence[float]) -> "DisturbanceSignal":
        v = np.asarray(values, dtype=float)
        return cls(v.size, lambda t: np.full(t.shape + v.shape, v))

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

        def fn(t: np.ndarray) -> np.ndarray:
            # float_power squares through C pow, as Python's float ** does;
            # an array ** 2 multiplies, which rounds differently at a few levels
            pulse = amplitude * np.float_power(np.sin(np.pi * t), 2.0)
            out = pulse[..., None] * pat
            out[t >= cutoff] = 0.0
            return out

        return cls(k, fn)

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

        def fn(t: np.ndarray) -> np.ndarray:
            return np.stack([np.interp(t, ts, vs[:, i]) for i in range(k)], axis=-1)

        return cls(k, fn)


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
        if self.b.k != k:
            raise ValueError(f"disturbance has {self.b.k} components, expected k={k}")
        wrong_sign = np.where(np.arange(k) < m, self.lam <= 0, self.lam >= 0)
        if np.any(wrong_sign):
            row, col = np.argwhere(wrong_sign)[0]
            where = f"cell j={row - 1}, component {col + 1}"
            if self.lam[row, col] == 0:
                raise ValueError(f"zero characteristic speed sampled at {where}")
            raise ValueError(
                f"speed sign pattern violated at {where}: need the m positive speeds "
                "ordered before the k-m negative ones at every sample")
        if np.any(self.K[:m, :m] != 0) or np.any(self.K[m:, m:] != 0):
            raise ValueError("feedback matrix must have zero diagonal blocks")

    @property
    def J(self) -> int:
        return self.pi.shape[0]


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
            raise ValueError(f"weights.mu must be positive, got {mu!r}")
        pp = np.asarray(p_plus, dtype=float)
        pm = np.asarray(p_minus, dtype=float)
        for name, values in (("weights.p_plus", pp), ("weights.p_minus", pm)):
            if np.any(values <= 0):
                raise ValueError(f"{name} must be strictly positive, got {values.tolist()!r}")
        xs = grid.centers
        with np.errstate(over="ignore"):   # the constructor rejects an infinite weight
            vals = np.hstack([
                pp[None, :] * np.exp(-mu * xs)[:, None],
                pm[None, :] * np.exp(mu * xs)[:, None],
            ])
        return cls(values=vals, mu=mu)

    def interior(self) -> np.ndarray:
        """Weights at interior cells j = 0 .. J-1, shape (J, k)."""
        return self.values[1:-1]

    def eigen_bounds(self) -> tuple[float, float]:
        """(zeta, beta): min/max diagonal weight over the interior cells."""
        inner = self.interior()
        return float(inner.min()), float(inner.max())
