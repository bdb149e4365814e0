"""C2 decided exactly: each cell's source matrix ``P Pi + Pi^T P - dt Pi^T P Pi``
formed in ``fractions.Fraction`` from the stored ``p``, ``Pi`` and ``dt``,
which hold every double exactly, and decided by its principal minors.  The
float verdict tolerates a smallest eigenvalue down to ``-PSD_REL_TOL``
times the cell's largest |entry|; these tests say what that lets through
on the six scenario files."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypiss import certifier, load_scenario

ROOT = Path(__file__).resolve().parent.parent
FILES = [ROOT / "scenarios" / f"{name}.json"
         for name in ("linear_benchmark", "saint_venant", "isothermal_euler")]
FILES += sorted((ROOT / "tests" / "scenarios").glob("*.json"))


def exact_entries(scenario):
    """Each cell's (a, b, c), the 2x2 source matrix [[a, b], [b, c]] in
    exact arithmetic, with ``certifier._source_entries``'s formula."""
    k, dt = scenario.coefficients.k, Fraction(scenario.grid.dt)
    assert k == 2
    p, pi = scenario.weights.interior().tolist(), scenario.coefficients.pi.tolist()
    cells = []
    for pj, pij in zip(p, pi):
        pj = [Fraction(v) for v in pj]
        pij = [[Fraction(v) for v in row] for row in pij]

        def entry(r, s):
            acc = sum(pij[c][r] * pj[c] * pij[c][s] for c in range(k))
            return pj[r] * pij[r][s] + pj[s] * pij[s][r] - dt * acc

        cells.append((entry(0, 0), entry(0, 1), entry(1, 1)))
    return cells


def psd(a, b, c):
    return a >= 0 and c >= 0 and a * c >= b * b


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_c2_exact_verdict_is_the_float_verdict(path):
    scenario = load_scenario(str(path)).build(J=50)
    coeffs, weights, dt = scenario.coefficients, scenario.weights, scenario.grid.dt
    min_eigs, scale = certifier._min_eigs_and_scale(coeffs, weights, dt)
    scale = np.maximum(scale, 1e-300)
    passes = (min_eigs >= -certifier.PSD_REL_TOL * scale).tolist()
    assert certifier.check_source(coeffs, weights, scenario.grid).passed == all(passes)

    cells = exact_entries(scenario)
    assert [psd(*cell) for cell in cells] == passes
    # the tolerance's exact meaning: a float pass is S + tI PSD, t its slack
    for (a, b, c), ok, s in zip(cells, passes, scale.tolist()):
        if ok:
            t = Fraction(certifier.PSD_REL_TOL) * Fraction(s)
            assert psd(a + t, b, c + t)


def test_shipped_verdicts_cell_by_cell():
    counts = {path.stem: sum(psd(*cell) for cell in exact_entries(
        load_scenario(str(path)).build(J=50))) for path in FILES[:3]}
    assert counts == {"linear_benchmark": 50, "saint_venant": 0, "isothermal_euler": 0}
