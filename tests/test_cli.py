import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hyperspec
from hyperspec import SolverConfig, SolverError, cli, parse_edge_list, ranking, solver
from hyperspec.cli import main, parse_p

from conftest import record_starts, replay_runs, stop_run


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("2 2\n1 2\n")
    return str(path)


@pytest.fixture
def beta_star_file(tmp_path):
    main(["gen", "beta-star", "--r", "3", "--m", "10", "--out", str(tmp_path / "bs.txt")])
    return str(tmp_path / "bs.txt")


class TestParseP:
    def test_decimal(self):
        assert parse_p("1.5") == 1.5

    def test_fraction(self):
        assert parse_p("4/3") == pytest.approx(4.0 / 3.0)
        assert parse_p("12/7") == pytest.approx(12.0 / 7.0)

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_p("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_p("1e400")  # overflows float


class TestGen:
    def test_beta_star_file(self, beta_star_file):
        g = parse_edge_list(open(beta_star_file).read())
        assert g.n == 21 and g.m == 10 and g.r == 3

    def test_loose_path_to_stdout(self, capsys):
        assert main(["gen", "loose-path", "--r", "6", "--m", "4"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "6 21"

    def test_complete(self, capsys):
        assert main(["gen", "complete", "--n", "4", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 5  # header + 4 edges

    def test_bad_parameters(self, capsys):
        assert main(["gen", "complete", "--n", "2", "--r", "3"]) == 2


class TestSolve:
    def test_single_edge_trivial(self, single_edge_file, capsys):
        rc = main(["solve", single_edge_file, "--p", "2", "--runs", "1", "--seed", "7",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(1.0, abs=1e-10)
        assert set(payload) == {"lambda", "p", "r", "n", "m", "runs", "best_run", "converged",
                                "upper", "hits", "maxima", "expected_maxima", "stop", "stops"}
        assert (payload["r"], payload["n"], payload["m"]) == (2, 2, 1)

    def test_beta_star_value(self, beta_star_file, capsys):
        rc = main(["solve", beta_star_file, "--p", "3", "--runs", "20", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(2.0 * 10.0 ** (1.0 / 3.0), rel=1e-8)

    def test_deterministic_bytes(self, single_edge_file, capsys):
        args = ["solve", single_edge_file, "--p", "2", "--runs", "3", "--seed", "5",
                "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_emit_weighting(self, single_edge_file, capsys):
        main(["solve", single_edge_file, "--p", "2", "--runs", "1", "--format", "json",
              "--emit-weighting"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["weighting"]) == 2

    def test_text_format(self, single_edge_file, capsys):
        main(["solve", single_edge_file, "--p", "2", "--runs", "2"])
        out = capsys.readouterr().out
        assert "lambda" in out and "time" in out

    def test_csv_format_rejected(self, single_edge_file, capsys):
        # solve has no CSV form; rank and lagrangian keep theirs
        with pytest.raises(SystemExit) as exc:
            main(["solve", single_edge_file, "--p", "2", "--runs", "1", "--format", "csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'csv'" in err and "Traceback" not in err

    def test_text_reports_kernel_passes(self, beta_star_file, capsys):
        main(["solve", beta_star_file, "--p", "3", "--runs", "4", "--seed", "2"])
        out = capsys.readouterr().out
        with open(beta_star_file) as fh:
            g = parse_edge_list(fh)
        runs = solver.solve_multistart(g, solver.SolverConfig(p=3.0, runs=4, seed=2)).run_summaries
        evals = sum(run.evals for run in runs)
        grads = sum(run.grad_evals for run in runs)
        assert f"kernel      {evals} value passes, {grads} gradient passes\n" in out
        increments = sum(run.increments for run in runs)
        assert increments > 0
        assert f"increments  {increments} cancellation-free increment passes\n" in out
        restarts = sum(run.restarts for run in runs)
        assert f"restarts    {restarts} second searches after a failed CG search\n" in out
        assert "support     0 support steps\n" in out

    def test_text_reports_support_steps(self, tmp_path, capsys):
        # beta-star(6,4) at p = 4 < r - 1: runs end on a face of the sphere
        path = str(tmp_path / "bs64.txt")
        main(["gen", "beta-star", "--r", "6", "--m", "4", "--out", path])
        capsys.readouterr()
        main(["solve", path, "--p", "4", "--runs", "4", "--seed", "0"])
        out = capsys.readouterr().out
        with open(path) as fh:
            g = parse_edge_list(fh)
        runs = solver.solve_multistart(g, solver.SolverConfig(p=4.0, runs=4, seed=0)).run_summaries
        support = sum(run.support_steps for run in runs)
        assert support > 0
        assert f"support     {support} support steps\n" in out

    def test_text_reports_finishes(self, tmp_path, capsys):
        # complete(4,3) at p = 2: most signed starts converge to a sign-mixed
        # critical point and go on from |x|
        path = str(tmp_path / "k43.txt")
        main(["gen", "complete", "--n", "4", "--r", "3", "--out", path])
        capsys.readouterr()
        main(["solve", path, "--p", "2", "--runs", "8", "--seed", "1"])
        out = capsys.readouterr().out
        with open(path) as fh:
            g = parse_edge_list(fh)
        runs = solver.solve_multistart(g, solver.SolverConfig(p=2.0, runs=8, seed=1)).run_summaries
        finishes = sum(run.finishes for run in runs)
        assert finishes > 0
        assert f"finishes    {finishes} moves from a sign-mixed converged x to |x|\n" in out

    def test_text_reports_stop_reasons(self, beta_star_file, tmp_path, capsys):
        # the stop-reason histogram over the runs made, in order of first
        # appearance, and the runs made of --runs with the stop that ended
        # them and its counts: at p = r run 0 certifies its value and is the
        # only run; the JSON form keeps its keys, with runs the runs made and
        # upper the bound, and adds the counts, the stop and the histogram
        main(["solve", beta_star_file, "--p", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert ("runs        1 of 100 (best run 0, converged; certified stop: hits 1, "
                "maxima 1, expected maxima none)\n") in out
        assert "stops       grad_tol 1\n" in out
        main(["solve", beta_star_file, "--p", "3", "--seed", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["lambda", "p", "r", "n", "m", "runs", "best_run", "converged",
                                 "upper", "hits", "maxima", "expected_maxima", "stop", "stops"]
        assert payload["runs"] == 1 and payload["lambda"] <= payload["upper"]
        assert (payload["hits"], payload["maxima"], payload["expected_maxima"]) == (1, 1, None)
        assert (payload["stop"], payload["stops"]) == ("certified", {"grad_tol": 1})
        # complete(4,3) at p = 2 < r: no bound; 8 converged runs at one value
        # make a further maximum unlikely
        path = str(tmp_path / "k43.txt")
        main(["gen", "complete", "--n", "4", "--r", "3", "--out", path])
        main(["solve", path, "--p", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert ("runs        8 of 100 (best run 7, converged; estimate stop: hits 8, "
                "maxima 1, expected maxima 1.4)\n") in out
        assert "stops       grad_tol 8\n" in out
        assert ("bound       none (p < r, or no grad_tol run at a weighting positive on "
                "every edge)\n") in out
        main(["solve", path, "--p", "2", "--seed", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["runs"], payload["hits"], payload["maxima"]) == (8, 8, 1)
        assert payload["expected_maxima"] == 1.4
        assert (payload["stop"], payload["stops"]) == ("estimate", {"grad_tol": 8})
        # with fewer runs than the estimate needs, no rule ends the sequence;
        # with --max-iter 2 no run converges, so there is no sample at all
        main(["solve", path, "--p", "2", "--seed", "1", "--runs", "5"])
        out = capsys.readouterr().out
        assert ("runs        5 of 5 (best run 0, converged; no early stop: hits 5, "
                "maxima 1, expected maxima 2)\n") in out
        main(["solve", path, "--p", "2", "--seed", "1", "--runs", "12", "--max-iter", "2"])
        out = capsys.readouterr().out
        assert "; no early stop: hits " in out and ", maxima 0, expected maxima none)\n" in out
        assert "runs        12 of 12 (best run " in out and "stops       max_iter 12\n" in out
        main(["solve", path, "--p", "2", "--seed", "1", "--runs", "12", "--max-iter", "2",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["stop"], payload["stops"]) == (None, {"max_iter": 12})

    def test_fractional_p(self, single_edge_file, capsys):
        rc = main(["solve", single_edge_file, "--p", "4/3", "--runs", "2", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == pytest.approx(4.0 / 3.0)

    def test_parse_error_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 4\n1 2 99\n")
        with pytest.raises(SystemExit) as err:
            main(["solve", str(bad), "--p", "2"])
        assert "line 2" in str(err.value)

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", str(tmp_path / "nope.txt"), "--p", "2"])

    def test_out_file(self, single_edge_file, tmp_path):
        out = tmp_path / "res.json"
        main(["solve", single_edge_file, "--p", "2", "--runs", "1", "--format", "json",
              "--out", str(out)])
        assert json.loads(out.read_text())["lambda"] == pytest.approx(1.0, abs=1e-10)


class TestRank:
    def test_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("3 6\n1 2 3 1.0\n4 5 6 1.5\n")
        rc = main(["rank", str(path), "--p", "3", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,vertex,impact_factor"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] in {"4", "5", "6"}

    def test_top_flag(self, beta_star_file, capsys):
        main(["rank", beta_star_file, "--p", "3", "--top", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["ranking"]) == 3
        assert payload["ranking"][0]["vertex"] == 1  # the star center dominates

    def test_top_exceeding_n(self, single_edge_file, capsys):
        assert main(["rank", single_edge_file, "--p", "2", "--top", "5"]) == 2


class TestArrayOutputs:
    """JSON output read from the result arrays: Python ints and floats with
    the arrays' exact values."""

    @staticmethod
    def capture(monkeypatch, name, fn):
        results = []

        def run(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, name, run)
        return results

    def test_rank_json_equals_report_arrays(self, beta_star_file, capsys, monkeypatch):
        reports = self.capture(monkeypatch, "rank_vertices", ranking.rank_vertices)
        main(["rank", beta_star_file, "--p", "3", "--runs", "3", "--top", "21",
              "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["ranking"]
        entries = reports[0].entries
        assert [row["rank"] for row in rows] == list(range(1, 22))
        assert all(type(row["vertex"]) is int and type(row["impact_factor"]) is float
                   for row in rows)
        assert [row["vertex"] for row in rows] == entries.vertices.tolist()
        assert [row["impact_factor"] for row in rows] == entries.impact.tolist()

    def test_solve_emit_weighting_equals_abs_x(self, beta_star_file, capsys, monkeypatch):
        results = self.capture(monkeypatch, "solve_multistart", solver.solve_multistart)
        main(["solve", beta_star_file, "--p", "3", "--runs", "3", "--format", "json",
              "--emit-weighting"])
        weighting = json.loads(capsys.readouterr().out)["weighting"]
        assert all(type(v) is float for v in weighting)
        assert weighting == np.abs(results[0].best.x).tolist()


class TestLagrangian:
    def test_single_edge_schedule(self, single_edge_file, capsys):
        rc = main(["lagrangian", single_edge_file, "--steps", "3", "--runs", "5",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,p,lambda,normalized"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0 + 1.0 / 7.0)
        # normalized estimate approaches 0.25 from above
        assert 0.25 < float(last[3]) < 0.32

    def test_json_estimate(self, single_edge_file, capsys):
        main(["lagrangian", single_edge_file, "--steps", "2", "--runs", "5",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"][0]["p"] == pytest.approx(4.0 / 3.0)
        assert payload["estimate"] == payload["schedule"][-1]["normalized"]


@pytest.mark.parametrize(
    "argv, status",
    [
        (["rank", "{edge}", "--p", "2", "--top", "0"], 2),
        (["solve", "{edge}", "--p", "1"], 2),
        (["solve", "{edge}", "--p", "2", "--runs", "0"], 2),
        # duplicate edges whose weights sum to inf: a bad file, like any other
        (["solve", "{overflow}", "--p", "2"], 1),
        (["solve", "{binary}", "--p", "2"], 1),           # not UTF-8
        (["solve", "{edge}", "--p", "2", "--tol", "1e400"], 2),  # grad_tol = inf
    ],
)
def test_bad_input_prints_error_without_traceback(argv, status, single_edge_file, tmp_path):
    overflow = tmp_path / "overflow.txt"
    overflow.write_text("2 3\n1 2 1e308\n2 1 1e308\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"2 3\n1 \xff 2\n")
    argv = [a.format(edge=single_edge_file, overflow=overflow, binary=binary) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(hyperspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hyperspec.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == status
    assert proc.stderr.startswith(f"error: {argv[1]}: " if status == 1 else "error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["solve", "{edge}", "--p", "2"], ["rank", "{edge}", "--p", "2"], ["lagrangian", "{edge}"],
     ["selftest", "--case", "gradient-fd"], ["selftest", "--case", "brute-force"]],
    ids=["solve", "rank", "lagrangian", "selftest-gradient-fd", "selftest-brute-force"],
)
def test_negative_seed_error_names_the_flag(argv, single_edge_file, capsys):
    assert main([a.format(edge=single_edge_file) for a in argv] + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: need integer seed >= 0, got seed=-1\n"


def test_unset_flags_take_solver_config_defaults(single_edge_file, monkeypatch):
    configs = []

    def record(g, cfg, *args, **kwargs):
        configs.append(cfg)
        raise SolverError("recorded")

    for name in ("solve_multistart", "rank_vertices", "lagrangian_approx"):
        monkeypatch.setattr(cli, name, record)
    for command in (["solve", "--p", "3"], ["rank", "--p", "3"], ["lagrangian"]):
        assert main([command[0], single_edge_file, *command[1:]]) == 1
    defaults = SolverConfig(p=3.0)
    assert configs == [defaults, replace(defaults, runs=10),
                       replace(defaults, p=2.0, grad_tol=1e-6)]


SOLVER_COMMANDS = {"solve": ["--p", "2"], "rank": ["--p", "2"], "lagrangian": []}


class TestTableOutput:
    """rank and lagrangian write one table: the CSV header is the JSON rows'
    key list and each CSV line is the repr join of its JSON row."""

    @pytest.mark.parametrize(
        "argv, key",
        [(["rank", "--p", "3", "--runs", "3", "--seed", "5", "--top", "21"], "ranking"),
         (["lagrangian", "--runs", "3", "--seed", "5", "--steps", "3"], "schedule")],
        ids=["rank", "lagrangian"],
    )
    def test_csv_is_the_json_rows(self, argv, key, beta_star_file, capsys):
        argv = [argv[0], beta_star_file, *argv[1:]]
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)[key]
        assert main(argv + ["--format", "csv"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split(",") == list(rows[0])
        assert lines == [",".join(map(repr, row.values())) for row in rows]


@pytest.mark.parametrize(
    "command",
    [[], ["solve"], ["rank"], ["lagrangian"], ["gen"], ["selftest"],
     ["gen", "beta-star"], ["gen", "loose-path"], ["gen", "complete"]],
    ids=lambda command: " ".join(command) or "hyperspec",
)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hyperspec")


@pytest.mark.parametrize("command", list(SOLVER_COMMANDS))
def test_solver_help_lists_solver_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    assert all(f" {flag} " in usage for flag in ("--runs", "--tol", "--max-iter", "--seed"))


@pytest.mark.parametrize(
    "argv",
    [["gen", "beta-star", "--r", "3", "--m", "2"], ["solve", "{edge}", "--p", "2", "--runs", "1"]],
    ids=["gen", "solve"],
)
def test_unwritable_out_prints_error_without_traceback(argv, single_edge_file, tmp_path):
    out = str(tmp_path / "missing" / "out.txt")  # in a directory that does not exist
    argv = [a.format(edge=single_edge_file) for a in argv] + ["--out", out]
    env = dict(os.environ, PYTHONPATH=str(Path(hyperspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hyperspec.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "{edge}", "--p", "2"], ["rank", "{edge}", "--p", "2"], ["lagrangian", "{edge}"]],
    ids=["solve", "rank", "lagrangian"],
)
def test_unwritable_out_exits_before_solving(argv, where, single_edge_file, tmp_path,
                                             monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("the solver ran although --out cannot be written")

    for name in ("solve_multistart", "rank_vertices", "lagrangian_approx"):
        monkeypatch.setattr(cli, name, never)
    out = str(tmp_path / "missing" / "out.txt") if where == "missing-dir" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([a.format(edge=single_edge_file) for a in argv] + ["--out", out])
    assert str(exc.value.code).startswith(f"error: cannot write {out}: ")


def test_out_file_is_kept_when_the_solve_fails(single_edge_file, tmp_path, monkeypatch):
    def fails(*args, **kwargs):
        raise SolverError("all 3 runs failed numerically")

    monkeypatch.setattr(cli, "solve_multistart", fails)
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier output\n")
    for out in (kept, fresh):
        assert main(["solve", single_edge_file, "--p", "2", "--out", str(out)]) == 1
    assert kept.read_text() == "earlier output\n" and not fresh.exists()


@pytest.mark.parametrize(
    "argv",
    [["solve", "{edge}", "--p", "2"], ["rank", "{edge}", "--p", "2"], ["lagrangian", "{edge}"]],
    ids=["solve", "rank", "lagrangian"],
)
def test_solver_error_exits_one(argv, single_edge_file, monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise SolverError("all 3 runs failed numerically")

    monkeypatch.setattr(solver, "solve_multistart", fails)
    monkeypatch.setattr(cli, "solve_multistart", fails)
    monkeypatch.setattr(ranking, "solve_multistart", fails)
    assert main([a.format(edge=single_edge_file) for a in argv]) == 1
    assert capsys.readouterr().err == "error: all 3 runs failed numerically\n"


class TestSelftest:
    def test_gradient_fd_case(self, capsys):
        rc = main(["selftest", "--case", "gradient-fd"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_tetrahedron_case(self, capsys):
        # a per-run success rate only when every run was made: 5 runs are
        # fewer than the statistical stop needs, and of 40 it makes 8
        rc = main(["selftest", "--case", "tetrahedron-z", "--runs", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "accu=1.00" in out
        rc = main(["selftest", "--case", "tetrahedron-z", "--runs", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "accu=" not in out

    def test_json_format(self, capsys):
        argv = ["selftest", "--case", "tetrahedron-z", "--runs", "5", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # no wall time: the same bytes
        out = json.loads(first)
        assert (out["passed"], out["total"]) == (1, 1)
        (case,) = out["cases"]
        assert set(case) == {"name", "err", "tol", "ok", "accuracy"}
        assert case["ok"] is True and case["err"] <= case["tol"]
        assert 0.0 < case["accuracy"] <= 1.0

    def test_runs_reaches_the_brute_force_case(self, monkeypatch):
        # the oracle is stubbed out: only the solver's starts are counted,
        # one per run made: every run at p = 2 < r, and at p = 3 = r the runs
        # up to the first certified run of the full sequence
        monkeypatch.setattr(cli, "brute_force_radius", lambda g, p, budget, seed: (0.0, None))
        for runs in (1, 3):
            starts = record_starts(monkeypatch)
            calls = []

            def solve(g, cfg):
                calls.append((g, cfg, solver.solve_multistart(g, cfg)))
                return calls[-1][2]

            monkeypatch.setattr(cli, "solve_multistart", solve)
            main(["selftest", "--case", "brute-force", "--runs", str(runs)])
            assert [cfg.p for _, cfg, _ in calls] == [2.0, 3.0] * 5  # five graphs
            assert all(cfg.runs == runs for _, cfg, _ in calls)
            made = [len(res.run_summaries) for _, _, res in calls]
            assert len(starts) == sum(made)
            expected = []
            for g, cfg, _ in calls:
                stop = stop_run(g, cfg.p, replay_runs(g, cfg))
                # three runs are too few for the estimate: only a certificate stops
                assert stop is None or cfg.p >= g.r
                expected.append(runs if stop is None else stop + 1)
            assert made == expected

    def test_closed_forms_bracket_rows(self, capsys, monkeypatch):
        # the closed forms at p >= r lie in [best lam, upper], one bracket row
        # each after the closed-form rows; a multistart that stopped before
        # --runs runs reports no per-run success
        assert main(["selftest", "--case", "closed-forms", "--format", "json"]) == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        names = [case["name"] for case in cases]
        assert names[6:] == ["bracket " + name for name in (
            "beta-star r=3 m=10 p=3", "beta-star r=3 m=10 p=5",
            "loose-path r=4 m=3 p=4", "loose-path r=4 m=4 p=4")]
        assert all(case["ok"] for case in cases)
        assert all(case["err"] <= 1e-14 for case in cases[6:])
        # of 100 runs each case makes a prefix: the certificate stops at
        # p >= r, the estimate at p < r
        assert all(case["accuracy"] is None for case in cases)
        # 5 runs are too few for the estimate, so the two p < r cases make
        # every run and report their success rate
        assert main(["selftest", "--case", "closed-forms", "--runs", "5", "--format", "json"]) == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        accuracy = {case["name"]: case["accuracy"] for case in cases}
        measured = {name for name, acc in accuracy.items() if acc is not None}
        assert measured == {"beta-star r=6 m=4 p=4", "beta-star r=3 m=10 p=2"}
        assert all(0.0 < accuracy[name] <= 1.0 for name in measured)
        # a multistart that gives no bound fails the bracket rows; the
        # closed-form rows still pass
        no_bound = lambda g, cfg: replace(solver.solve_multistart(g, cfg), upper=None)
        monkeypatch.setattr(cli, "solve_multistart", no_bound)
        assert main(["selftest", "--case", "closed-forms", "--format", "json"]) == 1
        cases = json.loads(capsys.readouterr().out)["cases"]
        assert all(case["err"] is None and not case["ok"] for case in cases[6:])
        assert all(case["ok"] for case in cases[:6])

    def test_runs_is_checked_for_every_case(self, capsys):
        assert main(["selftest", "--case", "gradient-fd", "--runs", "0"]) == 2
        assert capsys.readouterr().err == "error: need integer runs >= 1, got runs=0\n"

    def test_json_non_finite_err_is_null_and_fails(self, capsys, monkeypatch):
        def nan_case(cfg):
            return [("gradient-fd 100 probes", float("nan"), 1e-6, None)]

        monkeypatch.setitem(cli.SELFTEST_CASES, "gradient-fd", nan_case)
        assert main(["selftest", "--case", "gradient-fd", "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "cases": [{"name": "gradient-fd 100 probes", "err": None, "tol": 1e-6,
                       "ok": False, "accuracy": None}],
            "passed": 0,
            "total": 1,
        }
        assert main(["selftest", "--case", "gradient-fd"]) == 1
        assert "FAIL  gradient-fd" in capsys.readouterr().out

    def test_cases_report_in_table_order(self, capsys):
        # the order of the case table, whatever order --case names them in
        argv = ["selftest", "--case", "gradient-fd", "--case", "tetrahedron-z",
                "--runs", "3", "--format", "json"]
        assert main(argv) == 0
        names = [case["name"] for case in json.loads(capsys.readouterr().out)["cases"]]
        assert names == ["tetrahedron-z p=2 vs 3.0", "gradient-fd 100 probes"]

    def test_case_choices_are_the_table_keys(self, capsys):
        assert list(cli.SELFTEST_CASES) == [
            "closed-forms", "tetrahedron-z", "gradient-fd", "brute-force"]
        with pytest.raises(SystemExit):
            main(["selftest", "--help"])
        assert "{" + ",".join(cli.SELFTEST_CASES) + "}" in capsys.readouterr().out
