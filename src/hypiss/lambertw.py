"""Real branch -1 of the Lambert W function on (-1/e, 0), elementwise.

Used by the isothermal Euler equilibrium density, whose argument is of
order -225 exp(x - 225): far too small in magnitude for naive seeding but
comfortably inside the double range.  The solve runs on the substituted
equation u - ln u = -ln(-z) with u = -w >= 1, which is monotone and
convex, then polishes with Halley steps on w e^w = z itself so the
returned value satisfies the defining equation to near round-off.  Each
iteration runs on whole arrays; a converged lane stops moving.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lambert_w_minus1"]


def _branch_series(p: np.ndarray) -> np.ndarray:
    # Expansion about the branch point z = -1/e with p = sqrt(2(1 + e z)).
    return -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0
                       + p * (43.0 / 540.0 + p * (769.0 / 17280.0)))))


def _halley_polish(w: np.ndarray, z: np.ndarray, iterations: int = 3) -> np.ndarray:
    moving = np.ones(w.shape, dtype=bool)
    for _ in range(iterations):
        ew = np.exp(w)
        f = w * ew - z
        moving &= f != 0.0
        w1 = w + 1.0
        # a lane clamped onto the branch point has w1 = 0 and takes a zero step
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
            step = f / denom
        # stay on the lower branch, w <= -1
        w_next = np.minimum(w - step, -1.0)
        w = np.where(moving, w_next, w)
        moving &= ~(np.abs(step) <= 1e-16 * (2.0 + np.abs(w)))
        if not moving.any():
            break
    return w


def _newton(z: np.ndarray) -> np.ndarray:
    # Newton on g(u) = u - ln u - L for u = -w, seeded above the root.
    L = -np.log(-z)
    u = L + np.log1p(L) + 0.5
    moving = np.ones(u.shape, dtype=bool)
    for _ in range(80):
        g = u - np.log(u) - L
        gp = 1.0 - 1.0 / u
        moving &= gp > 0.0
        step = g / gp
        u_next = u - step
        u = np.where(moving, np.where(u_next < 1.0, 1.0 + 1e-12, u_next), u)
        moving &= ~(np.abs(step) <= 1e-14 * u)
        if not moving.any():
            break
    return _halley_polish(-u, z)


def lambert_w_minus1(z):
    """w <= -1 with w * exp(w) = z, elementwise for z in (-1/e, 0).

    Takes a number or an array and returns a value of the same shape.
    The branch point z = -1/e maps to -1.  Residuals |w e^w - z| stay
    below about 1e-13 |z| across the whole branch domain down to
    magnitudes near the double-precision floor.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).reshape(-1)
    bad = ~(z < 0.0)
    if np.any(bad):
        raise ValueError(f"branch -1 of Lambert W needs z in (-1/e, 0), got {z[bad][0]}")
    sigma = 1.0 + math.e * z
    if np.any(sigma < -1e-9):
        raise ValueError(f"z = {z[sigma < -1e-9][0]} below the branch point -1/e")
    w = np.full(z.shape, -1.0)
    series = (sigma > 0.0) & (sigma < 1e-6)
    p = np.sqrt(2.0 * sigma[series])
    w[series] = _branch_series(p)
    polish = series.copy()
    polish[series] = p > 1e-5
    w[polish] = _halley_polish(w[polish], z[polish], iterations=2)
    newton = sigma >= 1e-6
    w[newton] = _newton(z[newton])
    if np.any(newton & (w >= -1.0)):
        raise ValueError(f"z = {z[newton & (w >= -1.0)][0]} is too close to 0 "
                         "for double precision")
    return w.reshape(shape)[()]
