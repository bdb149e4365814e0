import math

import numpy as np
import pytest

from hypiss.lambertw import lambert_w_minus1


def _bisect_oracle(z, lo=-50.0, hi=-1.0):
    # w e^w is increasing on (-inf, -1]; bracket and bisect.
    f = lambda w: w * math.exp(w) - z
    assert f(lo) < 0 < f(hi) or f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(lo) < 0) == (f(mid) < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_branch_point():
    assert lambert_w_minus1(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_against_bisection_oracle():
    w = lambert_w_minus1(-0.1)
    assert w == pytest.approx(_bisect_oracle(-0.1), abs=1e-12)
    assert w == pytest.approx(-3.577152, abs=1e-6)


def test_defining_equation_midrange():
    for z in (-0.05, -0.2, -0.3, -0.36, -1e-3, -1e-8):
        w = lambert_w_minus1(z)
        assert w <= -1.0
        assert abs(w * math.exp(w) - z) <= 1e-13 * abs(z)


def test_residual_log_sweep():
    mags = np.exp(np.linspace(math.log(math.exp(-1.0) * (1 - 1e-9)),
                              math.log(1e-300), 100))
    worst = 0.0
    for mag in mags:
        z = -float(mag)
        w = lambert_w_minus1(z)
        assert w <= -1.0
        worst = max(worst, abs(w * math.exp(w) - z) / abs(z))
    assert worst <= 1e-13


def test_equilibrium_density_consistency():
    # the shipped pipe-flow equilibrium: W(-225 e^{-225}) = -225 exactly,
    # so the density at the left end comes out as rho0
    z = -225.0 * math.exp(-225.0)
    w = lambert_w_minus1(z)
    assert w == pytest.approx(-225.0, rel=1e-13)
    rho0 = 3.0 / math.exp(w / 2.0 + 112.5)
    assert rho0 == pytest.approx(3.0, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        lambert_w_minus1(0.0)
    with pytest.raises(ValueError):
        lambert_w_minus1(0.2)
    with pytest.raises(ValueError):
        lambert_w_minus1(-1.0)


def test_against_mpmath():
    # relative error against mpmath's branch -1 at 40 digits, from one array
    # call that mixes the Newton lanes with the branch-point series lanes;
    # near the branch point the cancellation in 1 + e z costs about five digits
    mpmath = pytest.importorskip("mpmath")
    far_z = -np.exp(np.linspace(-300.0, -1.0, 3000, endpoint=False))
    near_z = -math.exp(-1.0) + np.geomspace(1e-12, 0.1, 1000)
    z = np.concatenate([far_z, near_z])
    assert np.any(1.0 + math.e * z < 1e-6) and np.any(1.0 + math.e * z >= 1e-6)
    w = lambert_w_minus1(z)

    def rel_err(z, w):
        with mpmath.workdps(40):
            ref = mpmath.lambertw(mpmath.mpf(z), -1)
            return float(abs((w - ref) / ref))

    errors = [rel_err(a, b) for a, b in zip(z.tolist(), w.tolist())]
    assert max(errors[:far_z.size]) <= 1e-15
    assert max(errors[far_z.size:]) <= 1e-10


def test_arrays_keep_their_shape_and_match_single_calls():
    z = np.array([[-1.0 / math.e, -1.0 / math.e + 1e-9, -1.0 / math.e + 1e-7],
                  [-0.1, -1e-8, -225.0 * math.exp(-225.0)]])
    w = lambert_w_minus1(z)
    assert w.shape == z.shape
    for zi, wi in zip(z.ravel().tolist(), w.ravel().tolist()):
        assert lambert_w_minus1(zi) == wi
    assert lambert_w_minus1(np.empty(0)).shape == (0,)


def test_domain_error_names_the_first_bad_value():
    with pytest.raises(ValueError, match="got 0.5"):
        lambert_w_minus1(np.array([-0.1, 0.5, 0.7]))
    with pytest.raises(ValueError, match="got nan"):
        lambert_w_minus1(np.array([-0.1, math.nan]))
    with pytest.raises(ValueError, match="too close to 0"):
        lambert_w_minus1(-5e-324)
