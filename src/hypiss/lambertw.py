"""Real branch -1 of the Lambert W function on [-1/e, 0), elementwise.

Used by the isothermal Euler equilibrium density, whose argument is of
order -225 exp(x - 225).  One seed rule and one iteration, the standard
scheme (Corless et al. 1996; Veberič 2012): with sigma = e (z + 1/e),
formed with 1/e split into two doubles so that it keeps its digits near
the branch point, seed from the branch-point series in p = sqrt(2 sigma)
where sigma < 0.25 and from the asymptotic form ln(-z) - ln(-ln(-z))
elsewhere, then take Halley steps on w e^w = z, clamped to w <= -1, where
sigma >= 1e-5; below that the series is already exact to rounding.  The
domain is checked on input: z < 0, sigma >= -1e-9 (a rounding margin;
sigma <= 0 maps to -1 exactly), and |z| at least the smallest normal
double, below which e^w is subnormal and the result loses digits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lambert_w_minus1"]

# 1/e = _E_HI + _E_LO to twice double precision; z + _E_HI is exact near -1/e
_E_HI, _E_LO = 0.36787944117144233, -1.2428753672788363e-17


def lambert_w_minus1(z):
    """w <= -1 with w * exp(w) = z, elementwise for z in [-1/e, 0).

    Takes a number or an array and returns a value of the same shape.
    The branch point z = -1/e maps to -1.  Residuals |w e^w - z| stay
    below about 1e-13 |z| across the whole branch domain; a z closer to 0
    than the smallest normal double raises a ValueError.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).reshape(-1)
    bad = ~(z < 0.0)
    if np.any(bad):
        raise ValueError(f"branch -1 of Lambert W needs z in (-1/e, 0), got {z[bad][0]}")
    sigma = math.e * ((z + _E_HI) + _E_LO)
    for bad, why in ((sigma < -1e-9, "below the branch point -1/e"),
                     (z > -np.finfo(float).tiny, "is too close to 0 for double precision")):
        if np.any(bad):
            raise ValueError(f"z = {z[bad][0]} {why}")
    p = np.sqrt(2.0 * np.maximum(sigma, 0.0))
    L = np.log(-z)
    w = np.where(sigma < 0.25, -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (
        11.0 / 72.0 + p * (43.0 / 540.0 + p * (769.0 / 17280.0))))), L - np.log(-L))
    moving = sigma >= 1e-5
    # every lane's error reaches its floor within 4 steps: the rounding of w, or
    # near the branch point the cancellation in w e^w - z, in which such lanes
    # keep moving until the cap; 6 steps end 1.3e-14 from mpmath there, as 4, 8
    # and 12 do
    for _ in range(6):
        ew = np.exp(w)
        f = w * ew - z
        moving &= f != 0.0
        w1 = w + 1.0
        # a lane clamped onto the branch point has w1 = 0 and takes a zero step
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w = np.where(moving, np.minimum(w - step, -1.0), w)
        moving &= ~(np.abs(step) <= 1e-16 * (2.0 + np.abs(w)))
        if not moving.any():
            break
    return w.reshape(shape)[()]
