import functools
import json
import logging
import math
import os
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypiss import cli, scenario, solver
from hypiss.cli import main
from hypiss.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def small_benchmark(tmp_path, J=64, T=4.0, **overrides):
    raw = json.loads((SCENARIOS / "linear_benchmark.json").read_text())
    raw["grid"]["J"] = J
    raw["grid"]["T"] = T
    raw["boundary"]["disturbance"]["cutoff"] = T / 2
    for key, value in overrides.items():
        section, field = key.split(".")
        raw[section][field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def huge_disturbance(tmp_path, amplitude, M):
    """The benchmark at J=20, T=0.5 with a disturbance of ``amplitude``
    injected through ``M``; it certifies, as the certificate reads no ``b``."""
    return small_benchmark(tmp_path, J=20, T=0.5, **{
        "boundary.M": M,
        "boundary.disturbance": {"kind": "pulsed_sine", "amplitude": amplitude, "cutoff": 5.0}})


def deviation_block(tmp_path, capsys, path, *args):
    """The deviation lines ``table`` prints for ``path``, or None without them."""
    out = tmp_path / "o"
    assert main(["table", "--scenario", str(path), "--out", str(out), *args]) == 0
    text = capsys.readouterr().out
    assert text == (out / "table.txt").read_text()
    _, found, block = text.partition("\n\nrelative deviation from benchmark reference values:\n")
    return block.splitlines() if found else None


class TestCertifyCommand:
    def test_benchmark_passes(self, tmp_path, capsys):
        path = small_benchmark(tmp_path)
        code = main(["certify", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert report["overall"] is True
        assert report["c3"]["kappa12_bound"] == pytest.approx(0.9428, abs=1e-4)
        assert (tmp_path / "o" / "certificate.txt").exists()
        assert "PASS" in capsys.readouterr().out

    def test_euler_counterexample_fails_nonzero(self, tmp_path, capsys):
        code = main(["certify", "--scenario", str(SCENARIOS / "isothermal_euler.json"),
                     "--out", str(tmp_path / "o")])
        assert code != 0
        out = capsys.readouterr().out
        assert "C2" in out and "FAIL" in out
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert report["c2"]["passed"] is False
        assert report["first_failure"]["condition"] == "C2"

    def test_gain_above_bound_fails(self, tmp_path):
        path = small_benchmark(tmp_path, **{"boundary.kappa12": 0.95})
        code = main(["certify", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code != 0
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert report["first_failure"]["condition"] == "C3"

    def test_bad_scenario_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["certify", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err


    def test_builder_error_exits_2_without_output(self, tmp_path, capsys):
        # V*^2 >= g H*: the file parses, and the Saint-Venant builder rejects it
        raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
        raw["grid"]["J"] = 50
        raw["model"]["Vstar"] = 5.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        code = main(["certify", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: equilibrium not sub-critical")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 14.9 PiB for an array with shape (1000000000000002, 2) "
         "and data type float64", None),
        ("", "error: out of memory")])
    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                 message, line):
        # the builder raises as numpy does for a huge grid.J; nothing is allocated
        def no_memory(**params):
            raise MemoryError(message)
        monkeypatch.setitem(scenario._BUILDERS, "linear2x2", no_memory)
        code = main(["certify", "--scenario", str(small_benchmark(tmp_path)),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (line or f"error: {message}") + "\n"
        assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_outputs_and_envelope(self, tmp_path):
        path = small_benchmark(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out),
                     "--stride", "16"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certified"] is True
        assert summary["max_envelope_violation"] <= 0.0
        assert summary["final_L"] < summary["L0"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# hypiss-v1 lyapunov-trace")
        assert trace[1] == "n,t,L,envelope,sup_b_sq"
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[1].split(",")[:4] == ["n", "t", "j", "x"]

    def test_zero_scenario_gives_zero_trace(self, tmp_path):
        path = small_benchmark(
            tmp_path,
            **{"model.ic": {"kind": "constant", "values": [0.0, 0.0]},
               "boundary.disturbance": {"kind": "zero"}})
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[2:]
        assert all(row.split(",")[2] == "0.0" for row in rows)

    def test_failed_certificate_blocks_without_force(self, tmp_path):
        path = small_benchmark(tmp_path, **{"boundary.kappa12": 0.95})
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert not (out / "trace.csv").exists()
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--force"]) == 0
        assert (out / "trace.csv").exists()

    def test_overflowing_L0_aborts_on_stderr(self, tmp_path, capsys):
        # finite initial data whose L^0 = dx sum p w^2 overflows: the certificate
        # passes, and the march aborts at level 0 with no numpy warning
        path = small_benchmark(tmp_path, J=20, T=0.5, **{
            "model.ic": {"kind": "constant", "values": [1e308, 0.5]}})
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out), "--force"]) == 2
        captured = capsys.readouterr()
        assert "solver aborted" not in captured.out
        assert captured.err.splitlines()[-1] == (
            "error: solver aborted: non-finite L, state finite at step n=0, t=0")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("case", ["disturbance", "xi"])
    def test_non_finite_trace_exits_2_before_any_trace(self, tmp_path, capsys, case):
        # the march stays finite, but |b|^2 overflows where nu = 0 (M = 0), or
        # 1/xi overflows at Euler's level 0: the envelope would hold 0 * inf
        if case == "disturbance":
            path, extra = huge_disturbance(tmp_path, 1e200, [0.0, 0.0]), []
            error = "trace sup_b_sq at level 2 = inf"
        else:
            raw = json.loads((SCENARIOS / "isothermal_euler.json").read_text())
            raw["grid"].update(J=20, T=0.5)
            raw["xi"] = 1e-320
            path, extra = tmp_path / "euler.json", ["--force"]
            path.write_text(json.dumps(raw))
            error = "trace envelope at level 0 = nan"
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out), *extra]) == 2
        assert capsys.readouterr().err == f"error: {error} is not finite\n"
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "certificate.txt"]

    @pytest.mark.parametrize("rerun", ["uncertified", "blow-up", "no-stride", "bad-load"])
    def test_rerun_leaves_no_stale_outputs(self, tmp_path, rerun):
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(small_benchmark(tmp_path)), "--out", str(out),
                     "--stride", "16"]) == 0
        certificate = {"certificate.json", "certificate.txt"}
        if rerun == "uncertified":
            path = small_benchmark(tmp_path, **{"boundary.kappa12": 0.95})
            extra, code, want = [], 1, certificate
        elif rerun == "blow-up":
            # an anti-dissipative source that overflows the state within T
            path = small_benchmark(tmp_path, **{"model.source": [[-1e4, 0.0], [0.0, -1e4]]})
            extra, code, want = ["--force"], 2, certificate
        elif rerun == "bad-load":
            path, extra, code, want = small_benchmark(tmp_path, J=1), [], 2, set()
        else:
            path, extra, code = small_benchmark(tmp_path), [], 0
            want = certificate | {"trace.csv", "summary.json"}
        assert main(["run", "--scenario", str(path), "--out", str(out), *extra]) == code
        left = {name for name in (*certificate, "trace.csv", "trajectory.csv", "summary.json")
                if (out / name).exists()}
        assert left == want

    @pytest.mark.parametrize("stride", ["0", "-3", "1.5"])
    def test_non_positive_stride_rejected_before_any_output(self, tmp_path, capsys, stride):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(small_benchmark(tmp_path)), "--out", str(out),
                  "--stride", stride])
        assert exc.value.code == 2
        error = "invalid int value: '1.5'" if stride == "1.5" else "must be >= 1"
        assert f"argument --stride: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_are_bit_identical(self, tmp_path):
        path = small_benchmark(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestTableCommand:
    def test_small_table(self, tmp_path):
        path = small_benchmark(tmp_path)
        out = tmp_path / "o"
        code = main(["table", "--scenario", str(path), "--out", str(out),
                     "--J-list", "32,64,128"])
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[1] == "J,sup_gap,l2_gap,mu,eta"
        rows = [line.split(",") for line in lines[2:]]
        sups = [float(r[1]) for r in rows]
        l2s = [float(r[2]) for r in rows]
        etas = [float(r[4]) for r in rows]
        assert sups == sorted(sups, reverse=True)
        assert l2s == sorted(l2s, reverse=True)
        assert etas == sorted(etas)  # eta grows toward mu as J grows

    @pytest.mark.parametrize("amplitude, M, error", [
        (1e200, [0.0, 0.0], "trace sup_b_sq at level 2 = inf"),
        (1e150, [1.0, 1.0], "envelope l2_gap = inf"),    # a finite gap whose square overflows
    ], ids=["disturbance", "gap"])
    def test_non_finite_trace_fails_the_row(self, tmp_path, capsys, amplitude, M, error):
        out = tmp_path / "o"
        assert main(["table", "--scenario", str(huge_disturbance(tmp_path, amplitude, M)),
                     "--out", str(out), "--J-list", "20,40"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            f"{J:>6d} failed: {error} is not finite" for J in (20, 40)]
        assert (out / "table.csv").read_text().splitlines()[2:] == ["20,,,,", "40,,,,"]

    def test_reference_deviations_printed_for_benchmark(self, tmp_path, capsys):
        assert deviation_block(tmp_path, capsys, SCENARIOS / "linear_benchmark.json",
                               "--J-list", "200") == [
            "   200 sup     0.16%  l2     0.40%  eta     0.000%"]

    def test_reference_deviations_at_unit_courant(self, tmp_path, capsys):
        assert deviation_block(tmp_path, capsys, SCENARIOS / "linear_benchmark.json",
                               "--cfl", "1.0", "--J-list", "200,400") == [
            "   200 sup     1.77%  l2     6.29%  eta     0.000%",
            "   400 sup     1.29%  l2     6.03%  eta     0.001%"]

    @pytest.mark.parametrize("variant", ["pattern", "table"])
    def test_no_reference_deviations_for_other_parameters(self, tmp_path, capsys, variant):
        raw = json.loads((SCENARIOS / "linear_benchmark.json").read_text())
        if variant == "pattern":
            raw["boundary"]["disturbance"]["pattern"] = [1, 1]
        else:
            # the shipped implicit weights at J = 200, tabulated
            xs = (np.arange(-1, 201) + 0.5) / 200
            mu = raw["weights"]["mu"]
            raw["weights"]["table"] = [[math.exp(-mu * x), math.exp(mu * x)] for x in xs]
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(raw))
        code = main(["table", "--scenario", str(path), "--out", str(tmp_path / "o"),
                     "--J-list", "200"])
        assert code == 0
        assert "relative deviation" not in capsys.readouterr().out

    def test_reference_deviations_for_an_equivalent_file(self, tmp_path, capsys):
        # other fields, the same discrete problem: a zero-amplitude sine
        # about the constant state, and the default pattern written out
        raw = json.loads((SCENARIOS / "linear_benchmark.json").read_text())
        raw["model"]["ic"] = {"kind": "sin", "amplitude": [0, 0], "offset": [-0.5, 0.5]}
        raw["boundary"]["disturbance"]["pattern"] = [1, -1]
        path = tmp_path / "equivalent.json"
        path.write_text(json.dumps(raw))
        assert deviation_block(tmp_path, capsys, path, "--J-list", "200") == [
            "   200 sup     0.16%  l2     0.40%  eta     0.000%"]

    @pytest.mark.parametrize("cfl", ["missing", [0.75]])
    def test_bad_cfl_fails_at_load_with_field(self, tmp_path, capsys, cfl):
        raw = json.loads((SCENARIOS / "linear_benchmark.json").read_text())
        if cfl == "missing":
            del raw["grid"]["cfl"]
        else:
            raw["grid"]["cfl"] = cfl
        path = tmp_path / "bad_cfl.json"
        path.write_text(json.dumps(raw))
        code = main(["table", "--scenario", str(path), "--out", str(tmp_path / "o"),
                     "--J-list", "32,64"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error:") and "grid.cfl" in captured.err

    def test_bad_field_outside_grid_fails_at_load(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "linear_benchmark.json").read_text())
        raw["boundary"]["kappa21"] = math.nan
        path = tmp_path / "bad_gain.json"
        path.write_text(json.dumps(raw))
        code = main(["table", "--scenario", str(path), "--out", str(tmp_path / "o"),
                     "--J-list", "32,64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "boundary.kappa21" in err

    def test_failing_row_does_not_block_the_rest(self, tmp_path, capsys):
        # slow speeds make dt huge at J=2, breaking the source condition
        # there while J=80 still certifies
        path = small_benchmark(tmp_path, **{"model.speeds": [0.1, -0.1],
                                            "boundary.kappa12": 0.2,
                                            "boundary.kappa21": 0.2,
                                            "grid.cfl": 1.0})
        out = tmp_path / "o"
        code = main(["table", "--scenario", str(path), "--out", str(out),
                     "--J-list", "2,80"])
        assert code == 1
        text = (out / "table.txt").read_text()
        assert "failed" in text and "C2" in text
        lines = (out / "table.csv").read_text().splitlines()
        ok_rows = [l for l in lines[2:] if l.split(",")[1]]
        assert len(ok_rows) == 1 and ok_rows[0].startswith("80,")

    def test_weight_table_fits_only_its_own_row(self, tmp_path, capsys):
        # a table of J + 2 = 52 rows builds the J=50 row and fails the J=100 row
        weights = load_scenario(str(small_benchmark(tmp_path, J=50))).build().weights.values
        path = small_benchmark(tmp_path, J=50, **{"weights.table": weights.tolist()})
        out = tmp_path / "o"
        code = main(["table", "--scenario", str(path), "--out", str(out),
                     "--J-list", "50,100"])
        assert code == 1
        _, row50, row100 = capsys.readouterr().out.splitlines()
        assert row50.split()[0] == "50" and float(row50.split()[1]) > 0
        assert row100 == "   100 failed: weights.table must have shape (J+2, k) = (102, 2), " \
                         "got (52, 2)"

    def test_j_list_validation(self, tmp_path, capsys):
        path = small_benchmark(tmp_path)
        for j_list in ("64,32", "1,64", "32,6x", "200,,400", ","):
            with pytest.raises(SystemExit) as exc:
                main(["table", "--scenario", str(path), "--out", str(tmp_path / "o"),
                      "--J-list", j_list])
            assert exc.value.code == 2
            assert "argument --J-list:" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cfl", ["0", "-1", "1.5", "nan", "inf", "x"])
    def test_bad_cfl_rejected_before_any_output(self, tmp_path, capsys, cfl):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["table", "--scenario", str(small_benchmark(tmp_path)), "--out", str(out),
                  "--cfl", cfl])
        assert exc.value.code == 2
        assert "argument --cfl:" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_steps_fail_each_row(self, tmp_path, capsys):
        # a Courant number, but one that gives each row's grid more than 10^8 steps
        out = tmp_path / "o"
        assert main(["table", "--scenario", str(small_benchmark(tmp_path, J=8)), "--out", str(out),
                     "--cfl", "1e-300", "--J-list", "8,16"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            f"{J:>6d} failed: grid.T = 4.0 and grid.cfl = 1e-300 give N = {n} time steps, "
            "more than 10^8" for J, n in ((8, "3.2e+301"), (16, "6.4e+301"))]

    def test_small_cfl_on_a_file_with_a_small_T(self, tmp_path, capsys):
        # N = 1600 steps here; on a unit grid (T = 1, J = 2) it would be 2e9
        out = tmp_path / "o"
        assert main(["table", "--scenario", str(small_benchmark(tmp_path, J=8, T=2e-7)),
                     "--out", str(out), "--cfl", "1e-9", "--J-list", "8"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("     8 ") and "failed" not in rows[0]


class TestTableThreads:
    """``table`` marches its rows on helper threads, one per CPU beyond the
    first and at most one per row beyond the first, when the compiled
    march runs.  The CPU count is forced here through ``os.sched_getaffinity``."""

    J_LIST = ("--J-list", "50,100,200")

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    def helpers(self, monkeypatch):
        """The helper threads each ``table`` starts, recorded in a list."""
        started = []

        class Helper(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(cli, "threading", SimpleNamespace(Thread=Helper))
        return started

    @pytest.mark.parametrize("name, code", [("linear_benchmark", 0), ("saint_venant", 1)])
    def test_output_does_not_depend_on_the_thread_count(self, tmp_path, capsys, monkeypatch,
                                                        name, code):
        # Saint-Venant's rows fail at C2
        got = []
        for cpus in (1, 3):
            self.cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            exit_code = main(["table", "--scenario", str(SCENARIOS / f"{name}.json"),
                              "--out", str(out), *self.J_LIST])
            got.append((exit_code, capsys.readouterr(), (out / "table.csv").read_bytes(),
                        (out / "table.txt").read_bytes()))
        assert got[0] == got[1]
        assert got[0][0] == code

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_helpers_only_with_the_compiled_march(self, tmp_path, capsys, monkeypatch,
                                                  march_backend, cpus):
        self.cpus(monkeypatch, cpus)
        started, taken, row = self.helpers(monkeypatch), [], cli._table_row
        monkeypatch.setattr(cli, "_table_row", lambda spec, J, cfl: taken.append(J) or row(
            spec, J, cfl))
        assert main(["table", "--scenario", str(small_benchmark(tmp_path)),
                     "--out", str(tmp_path / "o"), *self.J_LIST]) == 0
        assert len(started) == (min(cpus, 3) - 1 if march_backend == "c" else 0)
        assert not any(helper.is_alive() for helper in started)
        # one thread takes the rows largest first; several take each row once
        assert taken == [200, 100, 50] if not started else sorted(taken) == [50, 100, 200]

    @pytest.mark.parametrize("error", [MemoryError, RuntimeError])
    def test_error_in_a_helper_propagates(self, tmp_path, capsys, monkeypatch, error):
        # a MemoryError is an exit 2 with one line from main, a RuntimeError (a bug)
        # leaves main as it does from one thread; the stand-in library starts the
        # helpers, and no row marches
        self.cpus(monkeypatch, 3)
        monkeypatch.setattr(solver, "_load", lambda: True)
        caller, entered = threading.current_thread(), threading.Event()

        def row(spec, J, cfl):
            if threading.current_thread() is caller:
                assert entered.wait(10)     # a helper has taken a row first
                return {"J": J, "error": "not marched"}
            entered.set()
            raise error("no room for the row")

        monkeypatch.setattr(cli, "_table_row", row)
        before = threading.active_count()
        out = tmp_path / "o"
        argv = ["table", "--scenario", str(small_benchmark(tmp_path)), "--out", str(out),
                *self.J_LIST]
        if error is MemoryError:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: no room for the row\n"
        else:
            with pytest.raises(RuntimeError, match="no room for the row"):
                main(argv)
        assert threading.active_count() == before
        assert not (out / "table.csv").exists()

    def test_every_row_taken_once_under_contention(self, tmp_path, capsys, monkeypatch):
        # more threads than cores, switching as often as the interpreter can; the
        # stand-in library starts the helpers, and no row marches
        self.cpus(monkeypatch, 8)
        monkeypatch.setattr(solver, "_load", lambda: True)
        started, taken = self.helpers(monkeypatch), []
        monkeypatch.setattr(cli, "_table_row", lambda spec, J, cfl: taken.append(J) or {
            "J": J, "error": "not marched"})
        j_list, out = list(range(2, 402)), tmp_path / "o"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(["table", "--scenario", str(small_benchmark(tmp_path)), "--out", str(out),
                         "--J-list", ",".join(map(str, j_list))])
        finally:
            sys.setswitchinterval(interval)
        assert code == 1 and len(started) == 7
        assert sorted(taken) == j_list
        rows = (out / "table.csv").read_text().splitlines()[2:]
        assert [int(row.split(",")[0]) for row in rows] == j_list

    def test_one_build_for_every_thread(self, tmp_path, capsys, monkeypatch):
        # a cold cache: helpers that each missed it would each build the library
        if solver._load() is None:
            pytest.skip("the compiled step kernel could not be built")
        self.cpus(monkeypatch, 3)
        monkeypatch.setattr(solver, "_load", functools.cache(solver._load.__wrapped__))
        builds, build = [], solver._build

        def counted():
            builds.append(threading.current_thread())
            time.sleep(0.1)     # so that threads which both missed the cache would meet here
            return build()

        monkeypatch.setattr(solver, "_build", counted)
        assert main(["table", "--scenario", str(small_benchmark(tmp_path)),
                     "--out", str(tmp_path / "o"), *self.J_LIST]) == 0
        assert builds == [threading.current_thread()]


class TestSweepCommand:
    def test_sweep_rows(self, tmp_path):
        path = small_benchmark(tmp_path)
        out = tmp_path / "o"
        code = main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--xi-range", "0.125:2.0:8"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "xi,kappa12_bound,kappa21_bound,nu,envelope_constant"
        first = lines[2].split(",")
        assert float(first[0]) == 0.125
        assert float(first[1]) == pytest.approx(0.9428, abs=1e-4)
        assert float(first[2]) == pytest.approx(0.5305, abs=1e-4)
        bounds = [float(line.split(",")[1]) for line in lines[2:]]
        assert bounds == sorted(bounds, reverse=True)

    def test_range_validation(self, tmp_path, capsys):
        path = small_benchmark(tmp_path)
        # nan and inf pass a test of sign alone; numpy cannot allocate 10^12 steps
        for xi_range in ("0:1:5", "0.1:1.0", "nan:1:5", "0.05:inf:5", "inf:inf:2", "0.05:nan:2",
                         "a:1:5", "0.05:1.0:1000000000000"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o"),
                      "--xi-range", xi_range])
            assert exc.value.code == 2
            assert "argument --xi-range:" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_range_cap_refuses_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 10^6 steps is the most a grid may have; one more exits 2 without
        # asking numpy for the grid
        assert len(cli._xi_range("0.05:1.0:1000000")) == 10 ** 6
        path = small_benchmark(tmp_path)
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("grid allocated"))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o"),
                  "--xi-range", "0.05:1.0:1000001"])
        assert exc.value.code == 2
        assert "steps must be <= 10^6, got 1000001" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_override_note_in_the_certificate_alone(tmp_path, capsys, caplog):
    # stated in certificate.txt and on the stdout of certify and run, never logged
    raw = json.loads((SCENARIOS / "saint_venant.json").read_text())
    raw["grid"]["J"] = 50
    path = tmp_path / "sv.json"
    path.write_text(json.dumps(raw))
    note = "  note: source override differs from the sampled formula by up to "
    for command, extra, notes in (("certify", [], 1), ("run", ["--force"], 1), ("sweep", [], 0),
                                  ("table", ["--J-list", "50,100"], 0)):
        out = tmp_path / command
        with caplog.at_level(logging.WARNING, logger="hypiss"):
            assert main([command, "--scenario", str(path), "--out", str(out), *extra]) in (0, 1)
        assert caplog.records == []
        assert capsys.readouterr().out.count(note) == notes
        if notes:
            lines = (out / "certificate.txt").read_text().splitlines()
            assert sum(line.startswith(note) for line in lines) == 1


@pytest.mark.parametrize("command", ["certify", "run", "sweep", "table"])
def test_failed_load_makes_no_output_directory(tmp_path, capsys, command):
    code = main([command, "--scenario", str(SCENARIOS),
                 "--out", str(tmp_path / "o" / command / "deep")])
    assert code == 2
    assert capsys.readouterr().err.startswith("scenario error:")
    assert not (tmp_path / "o").exists()


def test_too_many_time_steps_exit_2_before_any_output(tmp_path, capsys):
    # cfl = 1e-300 loads, but N = T / dt = 8e301 levels could never be allocated
    path = small_benchmark(tmp_path, J=8, T=10.0, **{"grid.cfl": 1e-300})
    for command in ("certify", "run"):
        out = tmp_path / command
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: grid.T = 10.0 and grid.cfl = 1e-300 give "
                                           "N = 8e+301 time steps, more than 10^8\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "run", "sweep", "table"])
def test_out_naming_a_file_exits_2_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "o"
    out.write_text("kept\n")
    code = main([command, "--scenario", str(small_benchmark(tmp_path, J=20, T=0.5)),
                 "--out", str(out), *(["--J-list", "20"] if command == "table" else [])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("field, value, certify_error, sweep_error", [
    ("boundary.M", [1e308, 1.0], "certificate nu = inf", "sweep at xi = 0.05: nu = inf"),
    ("boundary.kappa12", 1e308, "certificate c3.eigenvalues = nan", None),
    ("weights.p_plus", [1e-320], "certificate C1 = inf",
     "sweep at xi = 0.05: kappa12_bound = inf"),
])
def test_non_finite_certificate_quantity_exits_2(tmp_path, capsys, field, value,
                                                 certify_error, sweep_error):
    # numpy warns of nothing (the suite turns a warning into a failure): a
    # quantity that overflows is named on one error line, and a sweep whose
    # rows stay finite exits 0
    path = small_benchmark(tmp_path, J=50, **{field: value})
    for command, error in (("certify", certify_error), ("sweep", sweep_error)):
        code = main([command, "--scenario", str(path), "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        if error is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: {error} is not finite\n")


def test_reused_parser_keeps_no_state_between_calls(tmp_path):
    # main builds its parser once per process; each parse must still start
    # from the defaults, and a failed parse must leave nothing behind
    path = str(small_benchmark(tmp_path, J=20, T=0.2))

    def rows(out, name):
        return (out / name).read_text().splitlines()[2:]

    out = tmp_path / "table"
    assert main(["table", "--scenario", path, "--out", str(out), "--J-list", "20,40"]) == 0
    assert len(rows(out, "table.csv")) == 2
    assert main(["table", "--scenario", path, "--out", str(out)]) == 0
    assert [r.split(",")[0] for r in rows(out, "table.csv")] == ["200", "400", "800", "1600"]

    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", path, "--out", str(out), "--xi-range", "0.1:0.2:2"]) == 0
    assert len(rows(out, "sweep.csv")) == 2
    assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
    assert len(rows(out, "sweep.csv")) == 20

    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", path, "--out", str(tmp_path / "run"), "--stride", "0"])
    assert exc.value.code == 2
    assert main(["certify", "--scenario", path, "--out", str(tmp_path / "certify")]) == 0
