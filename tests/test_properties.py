"""Property tests of the certified 2x2 system: on every certified draw the
march satisfies the one-step ISS inequality and stays under the envelope."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hypiss import certifier, core, lyapunov, solver  # noqa: E402
from hypiss.models import build_linear_benchmark  # noqa: E402


def between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def certified_2x2(draw):
    """A 2x2 system with speeds a, -b, a diagonally dominant source, random
    weights, gains inside the C3 bounds of the drawn weights, and a pulsed
    disturbance strong enough against the nonzero initial state that the
    nu term of the inequality matters."""
    T = 2.0
    diag = [draw(between(0.0, 0.5)) for _ in range(2)]
    off = [draw(between(-0.9, 0.9)) * min(diag) for _ in range(2)]
    common = dict(
        J=draw(st.integers(8, 64)), cfl=draw(between(0.3, 1.0)), T=T,
        mu=draw(between(0.05, 1.5)), xi=draw(between(0.05, 1.0)),
        speeds=(draw(between(0.3, 3.0)), -draw(between(0.3, 3.0))),
        source=((diag[0], off[0]), (off[1], diag[1])),
        ic=(draw(between(0.01, 0.1)), draw(between(-0.1, 0.1))),
        p_plus=(draw(between(0.5, 2.0)),), p_minus=(draw(between(0.5, 2.0)),),
        m_diag=(draw(between(-1.0, 1.0)), draw(between(-1.0, 1.0))),
        b=core.DisturbanceSignal.pulsed_sine(
            2, amplitude=draw(between(0.0, 0.5)), cutoff=draw(between(0.2, T)),
            pattern=(draw(between(-1.0, 1.0)), draw(between(-1.0, 1.0)))))
    probe = build_linear_benchmark(kappa12=0.0, kappa21=0.0, **common)
    c3 = certifier.check_boundary(probe.coefficients, probe.weights, probe.xi)
    return build_linear_benchmark(kappa12=draw(between(-0.95, 0.95)) * c3.kappa12_bound,
                                  kappa21=draw(between(-0.95, 0.95)) * c3.kappa21_bound,
                                  **common)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(certified_2x2())
def test_certified_march_keeps_the_one_step_inequality_and_the_envelope(sc):
    report = certifier.certify(sc)
    assume(report.overall)
    result = solver.run(sc)
    L, dt = result.lyapunov, np.diff(result.times)
    margin = ((1.0 - report.eta * dt) * L[:-1]
              + dt * report.nu * (1.0 + 1.0 / sc.xi) * result.b_sq[:-1] - L[1:])
    assert np.all(margin >= -1e-12 * L[:-1])
    trace = lyapunov.build_trace(result, sc, report)
    assert np.all(L <= trace.envelope * (1.0 + 1e-12))
