"""The streamed trace and trajectory writers against the generic row
writer ``reports._write_csv``, which formats each value of a row tuple."""

from dataclasses import replace

from hypiss import certifier, lyapunov, reports, solver
from hypiss.models import build_linear_benchmark


def test_streamed_writers_match_row_writer(tmp_path):
    sc = build_linear_benchmark(J=12, cfl=0.75, T=1.0, mu=0.575, xi=0.125,
                                kappa12=0.5, kappa21=0.5)
    report = certifier.certify(sc)
    result = solver.run(sc, stride=5)
    with_envelope = lyapunov.build_trace(result, sc, report)
    for trace in (with_envelope, replace(with_envelope, envelope=None)):
        rows = [(n, trace.times[n], trace.L[n],
                 None if trace.envelope is None else trace.envelope[n], trace.sup_b_sq[n])
                for n in range(trace.times.size)]
        reports._write_csv(tmp_path / "rows.csv", "lyapunov-trace",
                           ("n", "t", "L", "envelope", "sup_b_sq"), rows)
        reports.write_trace_csv(tmp_path / "trace.csv", trace)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    centers = sc.grid.centers
    rows = [(n, result.times[n], j, centers[j + 1], *interior[j])
            for n, interior in result.history for j in range(interior.shape[0])]
    reports._write_csv(tmp_path / "rows.csv", "trajectory",
                       ["n", "t", "j", "x", "w1", "w2"], rows)
    reports.write_trajectory_csv(tmp_path / "trajectory.csv", result, centers)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
