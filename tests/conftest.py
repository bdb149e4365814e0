import numpy as np
import pytest

from hypiss import certifier, lyapunov, solver
from hypiss.core import Grid1D, WeightField
from hypiss.models import build_linear_benchmark, saint_venant_scenario

BENCHMARK_J = (200, 400, 800, 1600)


def evaluate(interior: np.ndarray, weights: WeightField, grid: Grid1D) -> float:
    """Weighted squared L2 norm dx * sum_j W_j^T P_j W_j of a (J, k) interior."""
    interior = np.atleast_2d(np.asarray(interior, dtype=float))
    p = weights.interior()
    if np.any(p <= 0):
        raise ValueError("nonpositive Lyapunov weight")
    if interior.shape != p.shape:
        raise ValueError(f"state shape {interior.shape} does not match weights {p.shape}")
    return float(grid.dx * np.sum(p * interior * interior))


def gronwall_closed_form(c: float, a: float, z: float, dt: float, n: int) -> float:
    """Bound on y^{n+1} given y^0 = c and the one-step decay recursion.

    Closed form (c - z/a)(1 - a dt)^{n+1} + z/a of the recursion
    y^{m+1} <= (1 - a dt) y^m + dt z, valid while 0 < a dt < 1.
    """
    if a <= 0:
        raise ValueError("decay coefficient must be positive")
    if not 0.0 < a * dt < 1.0:
        raise ValueError(f"discrete decay bound needs 0 < a*dt < 1, got {a * dt}")
    return (c - z / a) * (1.0 - a * dt) ** (n + 1) + z / a


@pytest.fixture(params=["c", "numpy"])
def march_backend(request, monkeypatch):
    """Runs the test once with the compiled library and once without it, as
    on a host with no compiler: ``solver._load`` replaced by ``lambda: None``,
    the one switch of both the march and the row formatter.  The compiled
    case is skipped when it cannot be built."""
    if request.param == "c" and solver._load() is None:
        pytest.skip("the compiled step kernel could not be built")
    if request.param == "numpy":
        monkeypatch.setattr(solver, "_load", lambda: None)
    return request.param


def run_scenario(scenario):
    report = certifier.certify(scenario)
    return report, lyapunov.build_trace(solver.run(scenario), scenario, report)


@pytest.fixture(scope="session")
def benchmark_traces():
    """(cfl, J) -> (certificate, trace) for the standard benchmark."""
    out = {}
    for cfl in (0.75, 1.0):
        for J in BENCHMARK_J:
            sc = build_linear_benchmark(J=J, cfl=cfl)
            out[(cfl, J)] = run_scenario(sc)
    return out


@pytest.fixture(scope="session")
def saint_venant_trace():
    """Certificate and trace of the shipped channel-flow decay experiment."""
    return run_scenario(saint_venant_scenario())
