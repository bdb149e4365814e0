"""Static checks that make the weighted L2 functional a certified
ISS-Lyapunov function for the discretized system.

Three families of conditions are verified on the sampled data:

* C1 (transport): per-cell diagonal matrices built from upwind
  differences of the weights and speeds must be positive definite; they
  yield the decay rate.
* C2 (source): per-cell matrices P Pi + Pi^T P - dt Pi^T P Pi must be
  positive semi-definite.
* C3 (boundary): the reflected boundary quadratic form must be positive
  semi-definite for the chosen xi; for 2x2 systems closed-form admissible
  bounds on the feedback gains are reported.

The disturbance gain ``nu`` is the largest eigenvalue of the
boundary-weighted injection matrix.  The decay rate reported on a pass is
the closed form mu * alpha * exp(-mu dx) whenever the weights are in
implicit exponential form and the speeds are constant in x (this is the
value the decay envelope and the convergence tables are built from); the
per-cell tightest ratio is computed alongside and always bounds it from
above.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import Grid1D, SystemCoefficients, WeightField

__all__ = [
    "PD_TOL",
    "PSD_REL_TOL",
    "TransportCheck",
    "SourceCheck",
    "BoundaryCheck",
    "CertificateReport",
    "check_transport",
    "check_source",
    "check_boundary",
    "disturbance_gain",
    "certify",
    "sweep_xi",
]

# Strict positive definiteness demands eigenvalues above this absolute
# floor; semi-definiteness tolerates eigenvalues down to -PSD_REL_TOL
# times the matrix scale (round-off on boundary cases that are exact
# zeros in exact arithmetic).
PD_TOL = 1e-12
PSD_REL_TOL = 1e-10


@dataclass
class Witness:
    condition: str
    j: int
    component: Optional[int]
    value: float


@dataclass
class TransportCheck:
    passed: bool
    entries: np.ndarray          # (J, k) diagonal entries of the per-cell matrices
    eta_ratio: float             # tightest per-cell entry/weight ratio
    eta: Optional[float]         # certified decay rate (closed form when available)
    eta_closed_form: Optional[float]
    witness: Optional[Witness] = None


@dataclass
class SourceCheck:
    passed: bool
    min_eigenvalues: np.ndarray  # (J,) smallest eigenvalue per cell
    eigenvalues: np.ndarray      # (J, k) full ascending spectra
    witness: Optional[Witness] = None


@dataclass
class BoundaryCheck:
    passed: bool
    eigenvalues: np.ndarray
    kappa12_bound: Optional[float]
    kappa21_bound: Optional[float]
    witness: Optional[Witness] = None


def _transport_entries(coefficients: SystemCoefficients, weights: WeightField,
                       grid: Grid1D) -> np.ndarray:
    """Diagonal entries of the per-cell transport condition matrices."""
    m = coefficients.m
    lam = coefficients.lam          # (J+2, k) signed, ghosts at both ends
    p = weights.values              # (J+2, k)
    dx = grid.dx
    J = coefficients.J
    out = np.empty((J, coefficients.k))
    # positive block: -lam_{j-1} (p_{j+1}-p_j)/dx - ((lam_j-lam_{j-1})/dx) p_{j+1}
    lp = lam[:, :m]
    pp = p[:, :m]
    out[:, :m] = (-lp[0:J] * (pp[2:J + 2] - pp[1:J + 1]) / dx
                  - (lp[1:J + 1] - lp[0:J]) / dx * pp[2:J + 2])
    # negative block with magnitudes: |lam|_{j+1} (p_j-p_{j-1})/dx
    #                                 + ((|lam|_{j+1}-|lam|_j)/dx) p_{j-1}
    ln = -lam[:, m:]
    pn = p[:, m:]
    out[:, m:] = (ln[2:J + 2] * (pn[1:J + 1] - pn[0:J]) / dx
                  + (ln[2:J + 2] - ln[1:J + 1]) / dx * pn[0:J])
    return out


def _constant_speeds(coefficients: SystemCoefficients) -> bool:
    lam = coefficients.lam
    return bool(np.all(np.abs(lam - lam[0]) <= 1e-12 * np.maximum(1.0, np.abs(lam[0]))))


def check_transport(coefficients: SystemCoefficients, weights: WeightField,
                    grid: Grid1D) -> TransportCheck:
    """C1: per-cell positive definiteness and the resulting decay rate.

    ``eta_ratio`` is min over cells and components of entry/weight, the
    largest constant with W^T Theta W >= eta W^T P W.  When the weights
    are implicit and the speeds constant, the certified ``eta`` is the
    closed form mu * alpha * exp(-mu dx), which bounds the ratio from
    below and is the rate quoted by the convergence tables.
    """
    entries = _transport_entries(coefficients, weights, grid)
    p_int = weights.interior()
    ratios = entries / p_int
    eta_ratio = float(ratios.min())
    passed = bool(np.all(entries > PD_TOL))
    witness = None
    if not passed:
        j, comp = np.unravel_index(int(np.argmin(entries)), entries.shape)
        witness = Witness("C1", int(j), int(comp), float(entries[j, comp]))
    eta_closed = None
    if weights.is_implicit and _constant_speeds(coefficients):
        alpha = float(np.min(np.abs(coefficients.lam[0])))
        eta_closed = weights.mu * alpha * float(np.exp(-weights.mu * grid.dx))
    if not passed:
        eta = None
    elif eta_closed is not None:
        eta = min(eta_closed, eta_ratio)
    else:
        eta = eta_ratio
    return TransportCheck(passed=passed, entries=entries, eta_ratio=eta_ratio,
                          eta=eta, eta_closed_form=eta_closed, witness=witness)


def _source_matrices(coefficients: SystemCoefficients, weights: WeightField,
                     dt: float) -> np.ndarray:
    p = weights.interior()                        # (J, k) diagonal entries
    pi = coefficients.pi                          # (J, k, k)
    p_pi = p[:, :, None] * pi                     # P_j Pi_j
    pit_p_pi = np.einsum("jca,jc,jcb->jab", pi, p, pi)
    return p_pi + np.transpose(p_pi, (0, 2, 1)) - dt * pit_p_pi


def check_source(coefficients: SystemCoefficients, weights: WeightField,
                 grid: Grid1D) -> SourceCheck:
    """C2: positive semi-definiteness of the per-cell source matrices at
    the grid's time step."""
    mats = _source_matrices(coefficients, weights, grid.dt)
    eigs = np.linalg.eigvalsh(mats)
    scale = np.maximum(np.max(np.abs(mats), axis=(1, 2)), 1e-300)
    min_eigs = eigs[:, 0]
    ok = min_eigs >= -PSD_REL_TOL * scale
    passed = bool(np.all(ok))
    witness = None
    if not passed:
        j = int(np.argmin(min_eigs / scale))
        witness = Witness("C2", j, None, float(min_eigs[j]))
    return SourceCheck(passed=passed, min_eigenvalues=min_eigs, eigenvalues=eigs,
                       witness=witness)


def _boundary_diagonals(coefficients: SystemCoefficients,
                        weights: WeightField) -> Tuple[np.ndarray, np.ndarray]:
    """Outgoing and incoming boundary weight diagonals.

    Outgoing: (lam+_{J-1} p+_J, |lam-_0| p-_{-1});
    incoming: (lam+_{-1} p+_0, |lam-_J| p-_{J-1}).
    """
    m = coefficients.m
    lam = coefficients.lam
    p = weights.values
    J = coefficients.J
    d_out = np.concatenate([lam[J, :m] * p[J + 1, :m], -lam[1, m:] * p[0, m:]])
    d_in = np.concatenate([lam[0, :m] * p[1, :m], -lam[J + 1, m:] * p[J, m:]])
    return d_out, d_in


def check_boundary(coefficients: SystemCoefficients, weights: WeightField,
                   xi: float) -> BoundaryCheck:
    """C3: boundary quadratic form PSD; closed-form gain bounds for k = 2."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    d_out, d_in = _boundary_diagonals(coefficients, weights)
    K = coefficients.K
    bc = np.diag(d_out) - (1.0 + xi) * K.T @ np.diag(d_in) @ K
    eigs = np.linalg.eigvalsh(bc)
    scale = max(float(np.max(np.abs(bc))), 1e-300)
    passed = bool(eigs[0] >= -PSD_REL_TOL * scale)
    witness = None
    if not passed:
        witness = Witness("C3", -1, None, float(eigs[0]))
    k12_bound = k21_bound = None
    if coefficients.k == 2 and coefficients.m == 1:
        k12_bound = float(np.sqrt(d_out[1] / ((1.0 + xi) * d_in[0])))
        k21_bound = float(np.sqrt(d_out[0] / ((1.0 + xi) * d_in[1])))
    return BoundaryCheck(passed=passed, eigenvalues=eigs,
                         kappa12_bound=k12_bound, kappa21_bound=k21_bound,
                         witness=witness)


def disturbance_gain(coefficients: SystemCoefficients, weights: WeightField) -> float:
    """Largest eigenvalue of M^T diag(incoming boundary weights) M."""
    _, d_in = _boundary_diagonals(coefficients, weights)
    return float(np.max(coefficients.M ** 2 * d_in))


def check_continuous_sampled(coefficients: SystemCoefficients, weights: WeightField,
                             grid: Grid1D) -> bool:
    """Sampled convenience check of the continuous-domain conditions.

    Evaluates -Lambda P' - Lambda' P + Pi^T P + P Pi at the interior
    samples (derivatives by centered differences of the sampled fields),
    one stack of k x k matrices, and reports their positive definiteness.
    :func:`certify` combines it with the C3 boundary form.  Informational
    only; the discrete conditions above are the certification authority.
    """
    lam = coefficients.lam
    p = weights.values
    dx = grid.dx
    J = coefficients.J
    p_int = p[1:J + 1]
    lam_prime = (lam[2:J + 2] - lam[0:J]) / (2 * dx)
    if weights.is_implicit:
        signs = np.concatenate([-np.ones(coefficients.m),
                                np.ones(coefficients.k - coefficients.m)])
        p_prime = weights.mu * signs[None, :] * p_int
    else:
        p_prime = (p[2:J + 2] - p[0:J]) / (2 * dx)
    pi = coefficients.pi
    q = p_int[:, :, None] * pi + np.transpose(pi, (0, 2, 1)) * p_int[:, None, :]
    diag = np.arange(coefficients.k)
    q[:, diag, diag] += -lam[1:J + 1] * p_prime - lam_prime * p_int
    return bool(np.all(np.linalg.eigvalsh(q)[:, 0] > PD_TOL))


@dataclass
class CertificateReport:
    """Outcome of all static checks plus the derived scenario constants."""

    overall: bool
    c1: TransportCheck
    c2: SourceCheck
    c3: BoundaryCheck
    eta: Optional[float]
    nu: float
    xi: float
    zeta: float
    beta: float
    C1_const: float
    C2_const: Optional[float]
    dt: float
    eta_dt_ok: bool
    first_failure: Optional[Witness] = None
    continuous_sampled_ok: Optional[bool] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def w(x):
            return None if x is None else asdict(x)

        return {
            "overall": self.overall,
            "eta": self.eta,
            "eta_ratio": self.c1.eta_ratio,
            "eta_closed_form": self.c1.eta_closed_form,
            "nu": self.nu,
            "xi": self.xi,
            "zeta": self.zeta,
            "beta": self.beta,
            "C1": self.C1_const,
            "C2": self.C2_const,
            "dt": self.dt,
            "eta_dt_ok": self.eta_dt_ok,
            "c1": {
                "passed": self.c1.passed,
                "min_entry": float(np.min(self.c1.entries)),
                "witness": w(self.c1.witness),
            },
            "c2": {
                "passed": self.c2.passed,
                "min_eigenvalue": float(np.min(self.c2.min_eigenvalues)),
                "failing_cells": int(np.sum(self.c2.min_eigenvalues < 0)),
                "witness": w(self.c2.witness),
            },
            "c3": {
                "passed": self.c3.passed,
                "eigenvalues": [float(v) for v in self.c3.eigenvalues],
                "kappa12_bound": self.c3.kappa12_bound,
                "kappa21_bound": self.c3.kappa21_bound,
                "witness": w(self.c3.witness),
            },
            "first_failure": w(self.first_failure),
            "continuous_sampled_ok": self.continuous_sampled_ok,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = []
        verdict = "PASS" if self.overall else "FAIL"
        lines.append(f"certificate: {verdict}")
        lines.append(f"  C1 transport : {'ok' if self.c1.passed else 'FAIL'}"
                     f"  (min entry {np.min(self.c1.entries):.6g})")
        lines.append(f"  C2 source    : {'ok' if self.c2.passed else 'FAIL'}"
                     f"  (min eigenvalue {np.min(self.c2.min_eigenvalues):.6g})")
        lines.append(f"  C3 boundary  : {'ok' if self.c3.passed else 'FAIL'}"
                     f"  (eigenvalues {np.array2string(self.c3.eigenvalues, precision=6)})")
        if self.c3.kappa12_bound is not None:
            lines.append(f"  admissible |kappa12| <= {self.c3.kappa12_bound:.6g}, "
                         f"|kappa21| <= {self.c3.kappa21_bound:.6g}")
        eta_s = "n/a" if self.eta is None else f"{self.eta:.6g}"
        lines.append(f"  eta = {eta_s}  (tight ratio {self.c1.eta_ratio:.6g})")
        lines.append(f"  nu = {self.nu:.6g}  xi = {self.xi:.6g}")
        lines.append(f"  zeta = {self.zeta:.6g}  beta = {self.beta:.6g}"
                     f"  C1 = {self.C1_const:.6g}  C2 = "
                     + ("n/a" if self.C2_const is None else f"{self.C2_const:.6g}"))
        lines.append(f"  eta*dt < 1 : {'ok' if self.eta_dt_ok else 'VIOLATED'}")
        if self.continuous_sampled_ok is not None:
            lines.append(f"  sampled continuous check: "
                         f"{'ok' if self.continuous_sampled_ok else 'not satisfied'}")
        if self.first_failure is not None:
            fw = self.first_failure
            comp = "" if fw.component is None else f", component {fw.component}"
            lines.append(f"  first failure: {fw.condition} at cell j={fw.j}{comp}, "
                         f"value {fw.value:.6g}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def certify(scenario) -> CertificateReport:
    """Run all static checks for a scenario and assemble the report.

    Never raises on a failed condition; the report carries the first
    failing witness and partial results.
    """
    grid = scenario.grid
    coeffs = scenario.coefficients
    weights = scenario.weights
    xi = scenario.xi
    c1 = check_transport(coeffs, weights, grid)
    c2 = check_source(coeffs, weights, grid)
    c3 = check_boundary(coeffs, weights, xi)
    nu = disturbance_gain(coeffs, weights)
    zeta, beta = weights.eigen_bounds()
    eta = c1.eta
    eta_dt_ok = eta is not None and 0.0 < eta * grid.dt < 1.0
    overall = c1.passed and c2.passed and c3.passed and eta_dt_ok
    first = next((c.witness for c in (c1, c2, c3) if c.witness is not None), None)
    cont = check_continuous_sampled(coeffs, weights, grid) and c3.passed
    notes = list(getattr(scenario, "notes", []))
    return CertificateReport(
        overall=overall, c1=c1, c2=c2, c3=c3, eta=eta, nu=nu, xi=xi,
        zeta=zeta, beta=beta, C1_const=beta / zeta,
        C2_const=nu / zeta, dt=grid.dt, eta_dt_ok=eta_dt_ok,
        first_failure=first, continuous_sampled_ok=cont, notes=notes)


def sweep_xi(scenario, xi_values) -> List[dict]:
    """Boundary-gain bounds, nu and the envelope constant across a xi grid."""
    rows = []
    coeffs, weights = scenario.coefficients, scenario.weights
    c1 = check_transport(coeffs, weights, scenario.grid)
    nu = disturbance_gain(coeffs, weights)
    for xi in xi_values:
        c3 = check_boundary(coeffs, weights, float(xi))
        env_const = None
        if c1.eta is not None:
            env_const = (1.0 + 1.0 / float(xi)) * nu / c1.eta
        rows.append({
            "xi": float(xi),
            "kappa12_bound": c3.kappa12_bound,
            "kappa21_bound": c3.kappa21_bound,
            "nu": nu,
            "envelope_constant": env_const,
        })
    return rows
