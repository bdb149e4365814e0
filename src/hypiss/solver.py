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
rows.  When the speeds and the source matrices are the same, bit for
bit, at every sample (:func:`hypiss.core.same_in_every_cell`), as in the
shipped benchmark and Saint-Venant scenarios, only cell 0's upwind speeds
and ``Pi`` are laid out, as one column, once per run: NumPy broadcasts
that (k, 1) column, and the C kernel marches it with a coefficient column
stride of 0 (1 otherwise).

The compiled backend, ``_march.c``, marches k = 2 with m = 1, the shape
of every shipped scenario; the NumPy kernel marches every other shape
and is the fallback.  The C kernel does the same operations in the same
order, so the state and ``L`` are bit-identical.  Both sum ``L`` over
each component row as numpy sums a row (pairwise), then add the row
sums: numpy's sum of the whole state when J is a multiple of 8 above 64.
How the C kernel walks the state in cache, and its builds for each
instruction set, are told in the header of ``_march.c``; ``tilde`` and
``acc`` are the NumPy kernel's alone.  :func:`_load`, cached, builds the
library once per process, at the first 2x2 :func:`run` or trace or
trajectory writer of ``reports`` (the file holds their row formatter
too): ``cc`` compiles it into
``~/.cache/hypiss/march-<sha256 of source and command>.so``, which later
processes reuse (:func:`_build` has the cache policy).  :func:`_load`
returning None, as without a compiler or after a failed build, is the
one backend selector: NumPy marches and ``reports`` formats in Python;
tests and the benchmark replace ``_load`` with ``lambda: None`` to
select it.
The backend is logged and recorded in :attr:`SimulationResult.backend`.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import logging
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .core import same_in_every_cell
from .models import Scenario

__all__ = [
    "BlowupError",
    "SimulationResult",
    "run",
]

logger = logging.getLogger(__name__)

_CC = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_march.c")
_STALE_S = 30 * 86400   # a new build removes cached builds older than this


class BlowupError(RuntimeError):
    """Non-finite ``L`` detected; ``step`` holds the offending time level.
    The message says whether the state itself is non-finite there."""

    def __init__(self, step: int, t: float, state_finite: bool):
        what = "L, state finite" if state_finite else "state"
        super().__init__(f"non-finite {what} at step n={step}, t={t:.6g}")
        self.step = step
        self.t = t


@dataclass
class SimulationResult:
    times: np.ndarray                 # t^0 .. t^N
    lyapunov: np.ndarray              # L^n at each level
    b_sq: np.ndarray                  # |b(t^n)|^2 at each level
    final: np.ndarray                 # state at t^N, (J+2, k) with ghosts
    backend: str                      # "c" or "numpy": the kernel that marched
    history: Optional[List[Tuple[int, np.ndarray]]] = None   # (n, interior) snapshots

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _build() -> Path:
    """Path of the compiled kernel: the cached build of this source and
    command, compiled into the cache first when missing, which removes the
    cached builds older than ``_STALE_S``.  An unwritable cache compiles
    into a directory private to this process, removed at exit.  Raises
    OSError when the compiler is missing or fails."""
    import hashlib, subprocess  # here, not at import of hypiss, which need not pay for them
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CC).encode()).hexdigest()
    cache = Path.home() / ".cache" / "hypiss"
    target = cache / f"march-{key}.so"
    if target.is_file():
        return target
    if shutil.which(_CC[0]) is None:    # checked first, so no cache directory is left behind
        raise OSError(f"C compiler not found: {_CC[0]}")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        work = tempfile.TemporaryDirectory(dir=cache)
    except OSError:     # an unwritable cache: a directory private to this process stands in
        cache = Path(tempfile.mkdtemp(prefix="hypiss-march-"))
        atexit.register(shutil.rmtree, cache, True)
        target, work = cache / target.name, tempfile.TemporaryDirectory(dir=cache)
    with work:      # built aside and renamed, so a concurrent build never loads half a file
        out = Path(work.name) / target.name
        done = subprocess.run([*_CC, "-o", str(out), str(_SOURCE)], capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{_CC[0]} exited with {done.returncode}: {done.stderr.strip()}")
        out.replace(target)
    stale = target.stat().st_mtime - _STALE_S     # just built, so its mtime is now
    for old in cache.glob("march-*.so"):
        with contextlib.suppress(OSError):    # a concurrent build may remove it first
            if old.stat().st_mtime < stale:
                old.unlink()
    return target


@functools.cache
def _load():
    """The compiled library, built and loaded on the first call, with the
    signature of ``hypiss_march`` declared (``reports`` declares its other
    entry point); None when it cannot be built (no compiler, or a failed build)."""
    try:
        path = _build()
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        logger.info("march backend: numpy; the C kernel could not be built or loaded: %s", exc)
        return None
    fn, long, ptr = lib.hypiss_march, ctypes.c_long, ctypes.c_void_p
    fn.restype, fn.argtypes = long, [long] + [ptr] * 8 + [ctypes.c_double] * 2 + [long] * 3
    logger.info("march backend: c, %s", path)
    return lib


def run(scenario: Scenario, stride: Optional[int] = None) -> SimulationResult:
    """March ``scenario`` from t = 0 to t = T, recording the Lyapunov series.

    ``L^n`` (with the scenario's weights) and ``|b(t^n)|^2`` are recorded at
    every level; ``stride`` adds interior snapshots every that many steps
    (first and last level always included).  Per step: transport -> source
    -> functional -> boundary update with b(t^{n+1}).  Aborts with
    :class:`BlowupError` at the first level whose ``L`` is not finite,
    level 0 included, whether or not the state is; only then is the
    interior scanned, to say which.
    """
    grid, coeffs = scenario.grid, scenario.coefficients
    k, m, J, N = coeffs.k, coeffs.m, grid.J, grid.N
    dx = grid.dx
    p = np.ascontiguousarray(scenario.weights.interior().T)
    courant = float(np.max(np.abs(coeffs.lam))) * grid.dt / dx
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

    # the column stride of the coefficients: 0 marches every cell from cell 0's
    # column, whose upwind speeds are samples 0 and 2 of lam
    cs = 0 if same_in_every_cell(coeffs.lam, coeffs.pi) else 1
    lam, pi = (coeffs.lam[:3], coeffs.pi[:1]) if cs == 0 else (coeffs.lam, coeffs.pi)
    lam_up = np.ascontiguousarray(np.concatenate([lam[:-2, :m], lam[2:, m:]], axis=1).T)
    pi_cols = np.ascontiguousarray(pi.transpose(2, 1, 0))  # [c, a, j] = Pi_j[a, c]
    first_term, *more_terms = [(pi_cols[c], tilde[c]) for c in range(k)]

    def functional() -> float:
        np.multiply(p, inner, out=acc)
        np.multiply(acc, inner, out=acc)
        return dx * float(acc.sum(axis=1).sum())

    # the feedback reads (W+_{J-1}, W-_0) and writes (W+_{-1}, W-_J)
    comp = np.arange(k)
    cell_in = np.where(comp < m, J, 1)
    cell_out = np.where(comp < m, 0, J + 1)
    K, M = np.ascontiguousarray(coeffs.K), np.ascontiguousarray(coeffs.M)
    W[comp, cell_out] = K @ W[comp, cell_in]

    times = grid.times()
    b = np.ascontiguousarray(coeffs.b(times))
    b_sq = np.einsum("nk,nk->n", b, b)
    lyap = np.empty(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):   # BlowupError names the level
        lyap[0] = functional()
    if not math.isfinite(lyap[0]):
        raise BlowupError(0, times[0], bool(np.all(np.isfinite(inner))))

    def numpy_steps(n0: int, n1: int, step: float, r_lam: np.ndarray) -> int:
        """Levels n0 -> n1; returns the first level whose L is not finite, or -1."""
        with np.errstate(over="ignore", invalid="ignore"):   # BlowupError names the level
            for n in range(n0, n1):
                np.subtract(pos, pos_up, out=tilde_pos)
                np.subtract(neg_up, neg, out=tilde_neg)
                np.multiply(tilde, r_lam, out=tilde)
                np.subtract(inner, tilde, out=tilde)
                np.multiply(*first_term, out=acc)
                for term in more_terms:
                    np.multiply(*term, out=prod)
                    np.add(acc, prod, out=acc)
                np.multiply(acc, -step, out=acc)
                np.add(tilde, acc, out=inner)
                L = functional()
                if not math.isfinite(L):
                    return n + 1
                W[comp, cell_out] = K @ W[comp, cell_in] + M * b[n + 1]
                lyap[n + 1] = L
        return -1

    lib = _load() if (k, m) == (2, 1) else None
    if lib is None:
        steps = numpy_steps
    else:
        kernel = lib.hypiss_march
        buffers = [a.ctypes.data for a in (pi_cols, p, K, M, b, lyap)]

        def steps(n0: int, n1: int, step: float, r_lam: np.ndarray) -> int:
            return kernel(J, W.ctypes.data, r_lam.ctypes.data, *buffers, step, dx, n0, n1, cs)

    # one call per stretch of equal step size between snapshot levels; the
    # final step, possibly shortened to land on T, is a stretch of its own
    stops = {N - 1, N} | (set(range(stride, N, stride)) if stride else set())
    stops.discard(0)
    history: Optional[List[Tuple[int, np.ndarray]]] = None
    if stride is not None:
        history = [(0, inner.T.copy())]
    step = grid.dt
    r_lam = (step / dx) * lam_up
    n = 0
    for end in sorted(stops):
        if end == N:
            step = times[N] - times[N - 1]
            r_lam = (step / dx) * lam_up
        blown = steps(n, end, step, r_lam)
        if blown >= 0:
            raise BlowupError(blown, times[blown], bool(np.all(np.isfinite(inner))))
        n = end
        if history is not None and (end % stride == 0 or end == N):
            history.append((end, inner.T.copy()))
    return SimulationResult(times=times, lyapunov=lyap, b_sq=b_sq, final=W.T.copy(),
                            backend="numpy" if lib is None else "c", history=history)
