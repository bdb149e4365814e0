"""Certificate numbers of the three shipped scenarios at their shipped
J = 1600 and at J = 6400 (the size the benchmark certifies), recorded
once and compared at relative 1e-12.  They guard refactors of the
certifier and the builders against drift that a rerun of the same code
cannot see."""

import math
from pathlib import Path

import pytest

from hypiss import certifier
from hypiss.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FROZEN = {
    "linear_benchmark": {
        "eta": 0.5747933965012897, "nu": 1.7768112274604029,
        "kappa12_bound": 0.9428090415820634, "kappa21_bound": 0.5305232380534466,
        "c2_min_eigenvalue": 0.26899214087265844, "c2_failing_cells": 0,
        "c2_witness": None,
    },
    "saint_venant": {
        "eta": 0.8216366491557678, "nu": 0.1842171790696292,
        "kappa12_bound": 0.5883767881717149, "kappa21_bound": 0.8501050953427604,
        "c2_min_eigenvalue": -0.003699740430906276, "c2_failing_cells": 1600,
        "c2_witness": (1599, -0.003699740430906276),
    },
    "isothermal_euler": {
        "eta": 0.5363346197516133, "nu": 1.6580917647555669,
        "kappa12_bound": 0.8819171009418296, "kappa21_bound": 0.5672382672045276,
        "c2_min_eigenvalue": -0.048552292872237314, "c2_failing_cells": 1600,
        "c2_witness": (115, -0.031646783804448755),
    },
}

# J = 6400 adds the mesh: dt and the step count N.
FROZEN_6400 = {
    "linear_benchmark": {
        "dt": 0.0001171875, "N": 85334,
        "eta": 0.5749483421643515, "nu": 1.7770506966717252,
        "kappa12_bound": 0.9428090415820634, "kappa21_bound": 0.5305232380534466,
        "c2_min_eigenvalue": 0.2689662234346364, "c2_failing_cells": 0,
        "c2_witness": None,
    },
    "saint_venant": {
        "dt": 1.5773381422912473e-05, "N": 633980,
        "eta": 0.8218581357562998, "nu": 0.18424200688583278,
        "kappa12_bound": 0.5883767881717149, "kappa21_bound": 0.8501050953427604,
        "c2_min_eigenvalue": -0.003701188447199631, "c2_failing_cells": 6400,
        "c2_witness": (6399, -0.003701188447199631),
    },
    "isothermal_euler": {
        "dt": 0.00010984790362489711, "N": 91035,
        "eta": 0.5364069013894919, "nu": 1.6583152959834804,
        "kappa12_bound": 0.8819171030016132, "kappa21_bound": 0.5672382658677378,
        "c2_min_eigenvalue": -0.04855793887910247, "c2_failing_cells": 6400,
        "c2_witness": (459, -0.031641745175097796),
    },
}


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def check_report(scenario, frozen):
    report = certifier.certify(scenario).to_dict()
    for key in ("eta", "nu"):
        assert close(report[key], frozen[key]), key
    for key in ("kappa12_bound", "kappa21_bound"):
        assert close(report["c3"][key], frozen[key]), key
    assert close(report["c2"]["min_eigenvalue"], frozen["c2_min_eigenvalue"])
    assert report["c2"]["failing_cells"] == frozen["c2_failing_cells"]
    witness = report["c2"]["witness"]
    if frozen["c2_witness"] is None:
        assert witness is None
    else:
        j, value = frozen["c2_witness"]
        assert witness["j"] == j
        assert close(witness["value"], value)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_certificate_numbers(name):
    scenario = load_scenario(str(SCENARIOS / f"{name}.json")).build()
    assert scenario.grid.J == 1600
    check_report(scenario, FROZEN[name])


@pytest.mark.parametrize("name", sorted(FROZEN_6400))
def test_certificate_numbers_at_6400(name):
    frozen = FROZEN_6400[name]
    scenario = load_scenario(str(SCENARIOS / f"{name}.json")).build(J=6400)
    assert close(scenario.grid.dt, frozen["dt"])
    assert scenario.grid.N == frozen["N"]
    check_report(scenario, frozen)
