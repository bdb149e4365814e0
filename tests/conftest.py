import pytest

from hypiss import certifier, lyapunov, solver
from hypiss.models import build_linear_benchmark, saint_venant_scenario

BENCHMARK_J = (200, 400, 800, 1600)


@pytest.fixture(params=["c", "numpy"])
def march_backend(request, monkeypatch):
    """Runs the test once with the compiled library and once without it, as
    on a host with no compiler; the compiled case is skipped when it cannot
    be built."""
    if request.param == "c" and solver._load() is None:
        pytest.skip("the compiled step kernel could not be built")
    if request.param == "numpy":
        monkeypatch.setattr(solver, "_lib", False)
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
            sc = build_linear_benchmark(J=J, cfl=cfl, T=10.0, mu=0.575, xi=0.125,
                                        kappa12=0.5, kappa21=0.5)
            out[(cfl, J)] = run_scenario(sc)
    return out


@pytest.fixture(scope="session")
def saint_venant_trace():
    """Certificate and trace of the shipped channel-flow decay experiment."""
    sc = saint_venant_scenario(J=1600, cfl=0.75, T=10.0, mu=0.575)
    return run_scenario(sc)
