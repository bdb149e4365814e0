"""Split upwind time stepping with disturbance-bearing ghost-cell boundaries.

:func:`run` is the one step kernel.  Each step of the march does, on
buffers allocated once per run:

* transport: the first-order upwind update ``W - (r lam_up) (W - W_up)``
  with the speed sampled on the upwind side (cell j-1 for the positive
  block, j+1 for the negative one) and ``r = dt_n/dx``;
* source: the explicit Euler update ``W + (-dt_n) (Pi W)``, with ``Pi W``
  summed from component-wise products with the columns of ``Pi``;
* boundary: ghost cells from the feedback law ``K w_in + M b(t^{n+1})``,
  where ``w_in = (W+_{J-1}, W-_0)`` is the freshly computed trace and
  ``b`` is sampled at every time level once, before the march;
* functional: ``L^{n+1} = dx sum_j W_j^T P_j W_j`` over interior cells.

Both sub-steps use the same step size ``dt_n``: the nominal ``dt``, and
``T - t^{N-1}`` on the possibly shortened final step, for which
``r lam_up`` is computed once more.  Initial ghosts come from the discrete
compatibility condition, which carries no disturbance term.  The state is
held component-major, shape (k, J+2), so every update runs on contiguous
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .models import Scenario

__all__ = [
    "BlowupError",
    "SimulationResult",
    "run",
]


class BlowupError(RuntimeError):
    """Non-finite state detected; ``step`` holds the offending time level."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at step n={step}, t={t:.6g}")
        self.step = step
        self.t = t


@dataclass
class SimulationResult:
    times: np.ndarray                 # t^0 .. t^N
    lyapunov: np.ndarray              # L^n at each level
    b_sq: np.ndarray                  # |b(t^n)|^2 at each level
    final: np.ndarray                 # state at t^N, (J+2, k) with ghosts
    history: Optional[List[Tuple[int, np.ndarray]]] = None   # (n, interior) snapshots

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def run(scenario: Scenario, stride: Optional[int] = None) -> SimulationResult:
    """March ``scenario`` from t = 0 to t = T, recording the Lyapunov series.

    ``L^n`` (with the scenario's weights) and ``|b(t^n)|^2`` are recorded at
    every level; ``stride`` adds interior snapshots every that many steps
    (first and last level always included).  Per step: transport -> source
    -> functional -> boundary update with b(t^{n+1}).  Aborts with
    :class:`BlowupError` at the first level whose interior holds a
    non-finite value; with finite positive weights such a level has a
    non-finite ``L``, so only then is the interior scanned.
    """
    grid, coeffs = scenario.grid, scenario.coefficients
    k, m, J, N = coeffs.k, coeffs.m, grid.J, grid.N
    dx = grid.dx
    p = np.ascontiguousarray(scenario.weights.interior().T)
    courant = coeffs.max_abs_speed * grid.dt / dx
    if courant > 1.0 + 1e-9:
        raise ValueError(f"CFL violated: max|lambda| dt/dx = {courant:.6g} > 1")
    if stride is not None and stride < 1:
        raise ValueError("stride must be >= 1")

    # component-major state, row i = component i at cells j = -1 .. J
    W = np.zeros((k, J + 2))
    inner = W[:, 1:-1]
    inner[...] = scenario.initial.T
    pos, pos_up = W[:m, 1:-1], W[:m, :-2]
    neg, neg_up = W[m:, 1:-1], W[m:, 2:]
    tilde = np.empty((k, J))
    tilde_pos, tilde_neg = tilde[:m], tilde[m:]
    acc = np.empty((k, J))
    prod = np.empty((k, J))

    lam_up = np.ascontiguousarray(
        np.concatenate([coeffs.lam[:-2, :m], coeffs.lam[2:, m:]], axis=1).T)
    step = grid.dt
    r_lam = (step / dx) * lam_up
    pi_cols = np.ascontiguousarray(coeffs.pi.transpose(2, 1, 0))  # [c, a, j] = Pi_j[a, c]
    first_term, *more_terms = [(pi_cols[c], tilde[c]) for c in range(k)]

    def functional() -> float:
        np.multiply(p, inner, out=acc)
        np.multiply(acc, inner, out=acc)
        return dx * float(acc.sum())

    # the feedback reads (W+_{J-1}, W-_0) and writes (W+_{-1}, W-_J)
    comp = np.arange(k)
    cell_in = np.where(comp < m, J, 1)
    cell_out = np.where(comp < m, 0, J + 1)
    K, M = coeffs.K, coeffs.M
    W[comp, cell_out] = K @ W[comp, cell_in]

    times = grid.times()
    b = coeffs.b(times)
    b_sq = np.einsum("nk,nk->n", b, b)
    lyap = np.empty(N + 1)
    lyap[0] = functional()
    history: Optional[List[Tuple[int, np.ndarray]]] = None
    if stride is not None:
        history = [(0, inner.T.copy())]
    for n in range(N):
        if n == N - 1:
            step = times[N] - times[N - 1]
            r_lam = (step / dx) * lam_up
        np.subtract(pos, pos_up, out=tilde_pos)
        np.subtract(neg_up, neg, out=tilde_neg)
        tilde *= r_lam
        np.subtract(inner, tilde, out=tilde)
        np.multiply(*first_term, out=acc)
        for term in more_terms:
            np.multiply(*term, out=prod)
            acc += prod
        acc *= -step
        np.add(tilde, acc, out=inner)
        L = functional()
        if not math.isfinite(L) and not np.all(np.isfinite(inner)):
            raise BlowupError(step=n + 1, t=times[n + 1])
        W[comp, cell_out] = K @ W[comp, cell_in] + M * b[n + 1]
        lyap[n + 1] = L
        if history is not None and ((n + 1) % stride == 0 or n + 1 == N):
            history.append((n + 1, inner.T.copy()))
    return SimulationResult(times=times, lyapunov=lyap, b_sq=b_sq,
                            final=W.T.copy(), history=history)
