"""Real branch -1 of the Lambert W function on [-1/e, 0), elementwise.

Used by the isothermal Euler equilibrium density, whose argument is of
order -225 exp(x - 225).  One seed rule and one iteration, the standard
scheme (Corless et al. 1996; Veberič 2012): with sigma = 1 + e z, seed
from the branch-point series in p = sqrt(2 sigma) where sigma < 0.25 and
from the asymptotic form ln(-z) - ln(-ln(-z)) elsewhere, then take Halley
steps on w e^w = z, clamped to w <= -1.  The domain is checked on input:
z < 0, sigma >= -1e-9 (a rounding margin; sigma <= 0 maps to -1 exactly),
and |z| at least the smallest normal double, below which e^w is subnormal
and the result loses digits.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lambert_w_minus1"]


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
    sigma = 1.0 + math.e * z
    for bad, why in ((sigma < -1e-9, "below the branch point -1/e"),
                     (z > -np.finfo(float).tiny, "is too close to 0 for double precision")):
        if np.any(bad):
            raise ValueError(f"z = {z[bad][0]} {why}")
    p = np.sqrt(2.0 * np.maximum(sigma, 0.0))
    L = np.log(-z)
    w = np.where(sigma < 0.25, -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (
        11.0 / 72.0 + p * (43.0 / 540.0 + p * (769.0 / 17280.0))))), L - np.log(-L))
    moving = sigma > 0.0
    w[~moving] = -1.0
    # every lane's error reaches its floor within 3 steps: the rounding of w, or
    # near the branch point the noise of 1 + e z, in which such lanes keep moving
    # until the cap; 6 steps end 3.7e-11 from mpmath there, as 4, 8 and 12 do
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
