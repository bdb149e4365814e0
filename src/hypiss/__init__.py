"""Simulation and ISS certification of 1-D linear hyperbolic systems of
balance laws with boundary feedback and boundary disturbances.

The package couples a first-order split upwind solver with static
certificates (decay rate, disturbance gain, admissible feedback gains)
for a discrete weighted-L2 Lyapunov function, and monitors the recorded
Lyapunov series against its theoretical decay envelope.
"""

from .certifier import (CertificateReport, certify, check_boundary, check_source,
                        check_transport, disturbance_gain, sweep_xi)
from .core import DisturbanceSignal, Grid1D, SystemCoefficients, WeightField
from .lambertw import lambert_w_minus1
from .lyapunov import LyapunovTrace, build_trace, envelope_gap_norms, fit_decay_rate
from .models import (EulerParams, SaintVenantParams, Scenario, build_linear_benchmark,
                     euler_scenario, saint_venant_scenario)
from .scenario import ScenarioError, ScenarioSpec, load_scenario
from .solver import BlowupError, SimulationResult, run

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "DisturbanceSignal", "SystemCoefficients", "WeightField",
    "SimulationResult", "run", "BlowupError",
    "LyapunovTrace", "build_trace", "envelope_gap_norms", "fit_decay_rate",
    "certify", "CertificateReport", "check_transport", "check_source",
    "check_boundary", "disturbance_gain", "sweep_xi",
    "lambert_w_minus1",
    "Scenario", "build_linear_benchmark", "SaintVenantParams",
    "saint_venant_scenario", "EulerParams", "euler_scenario",
    "ScenarioSpec", "ScenarioError", "load_scenario",
    "__version__",
]
