"""Static checks that make the weighted L2 functional a certified
ISS-Lyapunov function for the discretized system.

Three families of conditions are verified on the sampled data:

* C1 (transport): per-cell diagonal matrices built from upwind
  differences of the weights and speeds must be positive definite; they
  yield the decay rate.
* C2 (source): per-cell matrices P Pi + Pi^T P - dt Pi^T P Pi must be
  positive semi-definite.  For k = 2 each cell's smallest eigenvalue is
  LAPACK's own dsterf/dlae2 steps evaluated in NumPy, with the same bits
  as numpy.linalg.eigvalsh; other k, and scales outside [1e-120, 1e145],
  call eigvalsh.
* C3 (boundary): the reflected boundary quadratic form must be positive
  semi-definite for the chosen xi; for 2x2 systems closed-form admissible
  bounds on the feedback gains are reported.

The disturbance gain ``nu`` is the largest eigenvalue of the
boundary-weighted injection matrix.  The decay rate reported on a pass is
the closed form mu * alpha * exp(-mu dx) whenever the weights are in
implicit exponential form and the speeds are the same, bit for bit, at
every sample (this is the value the decay envelope and the convergence
tables are built from); the per-cell tightest ratio is computed alongside
and always bounds it from above.

:func:`certify` and :func:`sweep_xi` compute without numpy warnings: a
huge or tiny gain or weight that overflows raises ValueError naming the
first quantity they report that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import Grid1D, SystemCoefficients, WeightField, same_in_every_cell

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
    failing_cells: int           # cells below -PSD_REL_TOL * scale, the verdict's test
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


def check_transport(coefficients: SystemCoefficients, weights: WeightField,
                    grid: Grid1D) -> TransportCheck:
    """C1: per-cell positive definiteness and the resulting decay rate.

    ``eta_ratio`` is min over cells and components of entry/weight, the
    largest constant with W^T Theta W >= eta W^T P W.  When the weights
    are implicit and the speeds are the same, bit for bit, at all J + 2
    samples (:func:`~hypiss.core.same_in_every_cell`), the certified ``eta``
    is the closed form mu * alpha * exp(-mu dx), which bounds the ratio
    from below and is the rate quoted by the convergence tables.
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
    if weights.is_implicit and same_in_every_cell(coefficients.lam):
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
    pit_p_pi = 0.0                                # Pi_j^T P_j Pi_j, summed over c in order
    for c in range(coefficients.k):
        pit_p_pi = pit_p_pi + (pi[:, c, :, None] * p[:, c, None, None]) * pi[:, c, None, :]
    return p_pi + np.transpose(p_pi, (0, 2, 1)) - dt * pit_p_pi


_EPS = np.finfo(float).eps / 2     # LAPACK's dlamch('E')


@np.errstate(all="ignore")     # np.where evaluates the branches it drops
def _min_eig_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each [[a, b], [b, c]] as LAPACK's dsyevd
    (jobz='N', uplo='L') finds it without scaling: dsterf's split tests on
    d = (a, c), e = b, then dlae2, then dlasrt's insertion sort, operation
    for operation.  Takes finite entries only."""
    e2 = b * b
    rte = np.sqrt(e2)                         # dsterf squares e, dlae2 gets its root
    split = ((np.abs(b) <= (np.sqrt(np.abs(a)) * np.sqrt(np.abs(c))) * _EPS)
             | (e2 <= _EPS ** 2 * np.abs(a * c)))
    ql = np.abs(c) >= np.abs(a)               # QL: dlae2(a, rte, c); QR: dlae2(c, rte, a)
    # dlae2's ACMX is its C in either orientation, and A + C, |A - C| are the same;
    # off the split lanes rte > 0, so its three cases for RT are one formula
    big, small = np.where(ql, c, a), np.where(ql, a, c)
    sm, adf, ab = a + c, np.abs(a - c), rte + rte
    hi = np.maximum(adf, ab)
    rt = hi * np.sqrt(1.0 + (np.minimum(adf, ab) / hi) ** 2)
    rt1 = np.where(sm < 0, 0.5 * (sm - rt), 0.5 * (sm + rt))
    rt2 = np.where(sm == 0, -0.5 * rt, (big / rt1) * small - (rte / rt1) * rte)
    d1 = np.where(split, a, np.where(ql, rt1, rt2))
    d2 = np.where(split, c, np.where(ql, rt2, rt1))
    return np.where(d2 < d1, d2, d1)          # comparisons, so signed zeros sort as dlasrt's


def _source_entries_2x2(coefficients: SystemCoefficients, weights: WeightField,
                        dt: float) -> Tuple[np.ndarray, ...]:
    """Entries (0, 0), (1, 0), (0, 1) and (1, 1) of each cell's source matrix
    for k = 2, as (J,) arrays made by the operations of
    :func:`_source_matrices` in its order."""
    p, pi = weights.interior(), coefficients.pi

    def entry(r, s):
        acc = 0.0
        for c in range(2):
            acc = acc + (pi[:, c, r] * p[:, c]) * pi[:, c, s]
        return p[:, r] * pi[:, r, s] + p[:, s] * pi[:, s, r] - dt * acc

    return entry(0, 0), entry(1, 0), entry(0, 1), entry(1, 1)


def _min_eigs_and_scale(coefficients: SystemCoefficients, weights: WeightField,
                        dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each cell's smallest source-matrix eigenvalue and largest |entry|.

    For k = 2 with every cell's largest lower-triangle |entry| zero or in
    [1e-120, 1e145], where neither dsyevd nor dsterf rescales, this is
    :func:`_min_eig_2x2`; otherwise numpy.linalg.eigvalsh.  Both give the
    same bits."""
    if coefficients.k == 2:
        a, b, b_upper, c = _source_entries_2x2(coefficients, weights, dt)
        lower = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        if np.all((lower == 0) | ((lower >= 1e-120) & (lower <= 1e145))):    # NaN fails all
            return _min_eig_2x2(a, b, c), np.maximum(lower, np.abs(b_upper))
    mats = _source_matrices(coefficients, weights, dt)
    return np.linalg.eigvalsh(mats)[:, 0], np.max(np.abs(mats), axis=(1, 2))


def check_source(coefficients: SystemCoefficients, weights: WeightField,
                 grid: Grid1D) -> SourceCheck:
    """C2: positive semi-definiteness of the per-cell source matrices at
    the grid's time step."""
    min_eigs, scale = _min_eigs_and_scale(coefficients, weights, grid.dt)
    scale = np.maximum(scale, 1e-300)
    ok = min_eigs >= -PSD_REL_TOL * scale
    passed = bool(np.all(ok))
    witness = None
    if not passed:
        j = int(np.argmin(min_eigs / scale))
        witness = Witness("C2", j, None, float(min_eigs[j]))
    return SourceCheck(passed=passed, min_eigenvalues=min_eigs,
                       failing_cells=int(np.sum(~ok)), witness=witness)


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


def _gain_bounds(coefficients: SystemCoefficients, d_out: np.ndarray, d_in: np.ndarray,
                 xi: float) -> Tuple[Optional[float], Optional[float]]:
    """Closed-form admissible |kappa12| and |kappa21| at ``xi``; None unless
    k = 2 and m = 1."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    if coefficients.k == 2 and coefficients.m == 1:
        return (float(np.sqrt(d_out[1] / ((1.0 + xi) * d_in[0]))),
                float(np.sqrt(d_out[0] / ((1.0 + xi) * d_in[1]))))
    return None, None


def check_boundary(coefficients: SystemCoefficients, weights: WeightField,
                   xi: float) -> BoundaryCheck:
    """C3: boundary quadratic form PSD; closed-form gain bounds for k = 2."""
    d_out, d_in = _boundary_diagonals(coefficients, weights)
    k12_bound, k21_bound = _gain_bounds(coefficients, d_out, d_in, xi)
    K = coefficients.K
    bc = np.diag(d_out) - (1.0 + xi) * K.T @ np.diag(d_in) @ K
    eigs = np.linalg.eigvalsh(bc)
    scale = max(float(np.max(np.abs(bc))), 1e-300)
    passed = bool(eigs[0] >= -PSD_REL_TOL * scale)
    witness = None
    if not passed:
        witness = Witness("C3", -1, None, float(eigs[0]))
    return BoundaryCheck(passed=passed, eigenvalues=eigs,
                         kappa12_bound=k12_bound, kappa21_bound=k21_bound,
                         witness=witness)


def disturbance_gain(coefficients: SystemCoefficients, weights: WeightField) -> float:
    """Largest eigenvalue of M^T diag(incoming boundary weights) M."""
    _, d_in = _boundary_diagonals(coefficients, weights)
    return float(np.max(coefficients.M ** 2 * d_in))


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
    C2_const: float
    dt: float
    eta_dt_ok: bool
    first_failure: Optional[Witness] = None
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
                "failing_cells": self.c2.failing_cells,
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
                     f"  C1 = {self.C1_const:.6g}  C2 = {self.C2_const:.6g}")
        lines.append(f"  eta*dt < 1 : {'ok' if self.eta_dt_ok else 'VIOLATED'}")
        if self.first_failure is not None:
            fw = self.first_failure
            comp = "" if fw.component is None else f", component {fw.component}"
            lines.append(f"  first failure: {fw.condition} at cell j={fw.j}{comp}, "
                         f"value {fw.value:.6g}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _require_finite(quantities: dict, where: str) -> None:
    """Raise ValueError naming the first float in ``quantities``, nested
    mappings and lists included, that is not finite; in a 1-D array, one
    value per time level, it names the first such level."""
    for key, value in quantities.items():
        name = f"{where}{key}"
        if isinstance(value, dict):
            _require_finite(value, f"{name}.")
        if isinstance(value, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                n = int(bad[0])
                raise ValueError(f"{name} at level {n} = {float(value[n])!r} is not finite")
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} = {v!r} is not finite")


@np.errstate(all="ignore")     # a quantity that is not finite is named instead
def certify(scenario) -> CertificateReport:
    """Run all static checks for a scenario and assemble the report.

    Never raises on a failed condition; the report carries the first
    failing witness and partial results.  Raises ValueError naming the
    first quantity of the report that is not finite, as a huge or tiny
    gain or weight can make one.
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
    report = CertificateReport(
        overall=overall, c1=c1, c2=c2, c3=c3, eta=eta, nu=nu, xi=xi,
        zeta=zeta, beta=beta, C1_const=beta / zeta,
        C2_const=nu / zeta, dt=grid.dt, eta_dt_ok=eta_dt_ok,
        first_failure=first, notes=list(scenario.notes))
    _require_finite(report.to_dict(), "certificate ")
    return report


@np.errstate(all="ignore")
def sweep_xi(scenario, xi_values) -> List[dict]:
    """Boundary-gain bounds, nu and the envelope constant across a xi grid.

    The bounds are C3's closed forms; C3's PSD check is not run.  Raises
    ValueError naming the first quantity of the rows that is not finite,
    as :func:`certify` does."""
    rows = []
    coeffs, weights = scenario.coefficients, scenario.weights
    c1 = check_transport(coeffs, weights, scenario.grid)
    nu = disturbance_gain(coeffs, weights)
    d_out, d_in = _boundary_diagonals(coeffs, weights)
    for xi in xi_values:
        k12_bound, k21_bound = _gain_bounds(coeffs, d_out, d_in, float(xi))
        env_const = None
        if c1.eta is not None:
            env_const = (1.0 + 1.0 / float(xi)) * nu / c1.eta
        row = {
            "xi": float(xi),
            "kappa12_bound": k12_bound,
            "kappa21_bound": k21_bound,
            "nu": nu,
            "envelope_constant": env_const,
        }
        _require_finite(row, f"sweep at xi = {row['xi']!r}: ")
        rows.append(row)
    return rows
