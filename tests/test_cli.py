import json
import os
import subprocess
import sys

import pytest

from cycfix import cli
from cycfix.bench import gen_snark, write_instance
from cycfix.solver import BinaryProgram, Row
from cycfix.core import Permutation


@pytest.fixture
def snark3(tmp_path):
    name, bp = gen_snark(3)
    path = tmp_path / "j3.json"
    write_instance(name, bp, str(path))
    return str(path)


@pytest.fixture
def cyclic5(tmp_path):
    gen = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    bp = BinaryProgram(5, [1.0] * 5, [], None, [gen])
    path = tmp_path / "cyc5.json"
    write_instance("cyc5", bp, str(path))
    return str(path)


class TestSolveCommand:
    def test_infeasible_exit_code(self, snark3, capsys):
        rc = cli.main(["solve", "--instance", snark3, "--mode", "group"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_INFEASIBLE
        assert "status: infeasible" in out

    def test_optimal_exit_code(self, cyclic5, capsys):
        rc = cli.main(["solve", "--instance", cyclic5, "--mode", "peek"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "objective: 5" in out

    def test_generators_are_checked_once(self, snark3, monkeypatch):
        calls = []
        check = BinaryProgram._is_symmetry

        def counted(bp, perm, *args):
            calls.append(perm)
            return check(bp, perm, *args)

        monkeypatch.setattr(BinaryProgram, "_is_symmetry", counted)
        rc = cli.main(["solve", "--instance", snark3, "--mode", "peek",
                       "--relabel", "respect"])
        assert rc == cli.EXIT_INFEASIBLE
        assert tuple(calls) == gen_snark(3)[1].generators

    def test_timelimit_exit_code(self, snark3):
        rc = cli.main(["solve", "--instance", snark3, "--mode", "nosym",
                       "--time-limit", "0"])
        assert rc == cli.EXIT_TIMELIMIT

    @pytest.mark.parametrize("limit", ["nan", "-1"])
    def test_bad_time_limit_is_usage_error(self, snark3, capsys, limit):
        rc = cli.main(["solve", "--instance", snark3, "--mode", "nosym",
                       "--time-limit", limit])
        assert rc == cli.EXIT_USAGE
        assert "time limit" in capsys.readouterr().err

    def test_missing_instance_is_usage_error(self, capsys):
        rc = cli.main(["solve"])
        assert rc == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_instance_file_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["solve", "--instance", str(tmp_path / "none.json")])
        assert rc == cli.EXIT_USAGE
        assert "none.json" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["solve", "--bogus"]) == cli.EXIT_USAGE

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_undeclared_symmetry_is_input_error(self, tmp_path, capsys):
        # max x3 s.t. x1 + x2 + x3 <= 1; (1,2,3) moves the objective.
        bp = BinaryProgram(3, [0.0, 0.0, 1.0],
                           [Row.make({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 1.0)],
                           None, [Permutation.from_cycles(3, [(1, 2, 3)])])
        path = tmp_path / "bad.json"
        write_instance("bad", bp, str(path))
        rc = cli.main(["solve", "--instance", str(path), "--mode", "gen"])
        assert rc == cli.EXIT_USAGE
        assert "generator 1" in capsys.readouterr().err

    # The first died with a ValueError traceback (exit 1); the second was
    # read as a program without rows and the third as rhs 1.0, and both
    # were solved (exit 0).
    @pytest.mark.parametrize("rows, message", [
        ([{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": "abc"}], "row 1: rhs"),
        ({}, "rows must be a list"),
        ([{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": True}],
         "row 1: rhs True is not a finite number"),
    ], ids=["rhs-str", "rows-object", "rhs-bool"])
    def test_malformed_instance_is_input_error(self, tmp_path, capsys, rows,
                                               message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "pair", "n": 2, "objective": {"1": 1.0, "2": 1.0},
            "rows": rows, "generators": [[[1, 2]]]}))
        rc = cli.main(["solve", "--instance", str(path)])
        assert rc == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


# Each document died with a traceback and exit 1, which means "infeasible":
# a UnicodeDecodeError on the bytes, a RecursionError on the nesting.
UNREADABLE = [b"\xff\xfe{}", b"[" * 200000]
UNREADABLE_IDS = ["non-utf8", "deep-nesting"]


@pytest.mark.parametrize("command", ["solve", "propagate", "oracle"])
@pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
def test_unreadable_instance_is_input_error(command, data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert cli.main([command, "--instance", str(path)]) == cli.EXIT_USAGE
    assert "unreadable JSON" in capsys.readouterr().err


class TestPropagateAndOracle:
    def test_peek_closes_the_gap(self, cyclic5, capsys):
        rc = cli.main(["propagate", "--instance", cyclic5,
                       "--fix0", "2,5", "--mode", "peek"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "fixed0 added: 4" in out

    def test_nopeek_finds_nothing(self, cyclic5, capsys):
        rc = cli.main(["propagate", "--instance", cyclic5,
                       "--fix0", "2,5", "--mode", "nopeek"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "fixed0 added: -" in out

    def test_peek_runs_an_unordered_generator_as_nopeek(self, tmp_path,
                                                         capsys):
        # (1,3,2,4) is not ordered monotone: both modes run its powers.
        bp = BinaryProgram(4, [0.0] * 4, [], None,
                           [Permutation.from_cycles(4, [(1, 3, 2, 4)])])
        path = tmp_path / "unordered.json"
        write_instance("unordered", bp, str(path))
        outs = {}
        for mode in ("nopeek", "peek"):
            rc = cli.main(["propagate", "--instance", str(path),
                           "--fix0", "3", "--mode", mode])
            assert rc == cli.EXIT_OK
            outs[mode] = capsys.readouterr().out
        assert outs["peek"] == outs["nopeek"] == \
            "fixed0 added: -\nfixed1 added: -\n"

    def test_oracle_matches(self, cyclic5, capsys):
        rc = cli.main(["oracle", "--instance", cyclic5, "--fix0", "2,5"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "fixed0 added: 4" in out

    def test_row_conflict_is_infeasible(self, tmp_path, capsys):
        bp = BinaryProgram(2, [1.0, 1.0],
                           [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)], None,
                           [Permutation.from_cycles(2, [(1, 2)])])
        path = tmp_path / "pair.json"
        write_instance("pair", bp, str(path))
        rc = cli.main(["propagate", "--instance", str(path), "--fix1", "1,2"])
        assert rc == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().out == "infeasible\n"

    def test_oracle_without_generators_rejected(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        write_instance("plain", BinaryProgram(2, [1.0, 1.0], [], None, []),
                       str(path))
        assert cli.main(["oracle", "--instance", str(path)]) == cli.EXIT_USAGE
        assert "no symmetry generators" in capsys.readouterr().err

    def test_oracle_cap_below_free_count_rejected(self, cyclic5, capsys):
        rc = cli.main(["oracle", "--instance", cyclic5, "--cap", "4"])
        assert rc == cli.EXIT_USAGE
        assert "5 unfixed entries exceed enumeration cap 4" \
            in capsys.readouterr().err

    def test_oracle_without_lex_leader_is_infeasible(self, tmp_path, capsys):
        # x >=_lex (x2, x1) rules out x1 = 0, x2 = 1.
        bp = BinaryProgram(2, [1.0, 1.0], [], None,
                           [Permutation.from_cycles(2, [(1, 2)])])
        path = tmp_path / "swap.json"
        write_instance("swap", bp, str(path))
        rc = cli.main(["oracle", "--instance", str(path),
                       "--fix0", "1", "--fix1", "2"])
        assert rc == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().out == "infeasible\n"

    def test_group_closure_stops_at_its_limit(self, monkeypatch):
        gens = [Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])]
        assert len(cli._group_closure(gens)) == 4
        monkeypatch.setattr(cli, "MAX_GROUP_ELEMENTS", 3)
        with pytest.raises(cli.UsageError, match="exceeds 3 elements"):
            cli._group_closure(gens)

    def test_overlapping_fixings_rejected(self, cyclic5):
        rc = cli.main(["propagate", "--instance", cyclic5,
                       "--fix0", "1", "--fix1", "1"])
        assert rc == cli.EXIT_USAGE

    def test_bad_index_rejected(self, cyclic5):
        rc = cli.main(["propagate", "--instance", cyclic5, "--fix0", "9"])
        assert rc == cli.EXIT_USAGE

    # int() read "01" as x1, "+2" and "0_2" as x2, and an Arabic-Indic
    # digit one as x1.
    @pytest.mark.parametrize("text", ["01", "+2", "0_2", "\u0661", "2,,x"])
    def test_non_canonical_index_rejected(self, cyclic5, text, capsys):
        rc = cli.main(["propagate", "--instance", cyclic5, "--fix1", text])
        assert rc == cli.EXIT_USAGE
        assert "error: --fix1: " in capsys.readouterr().err

    def test_spaces_around_commas_allowed(self, cyclic5, capsys):
        rc = cli.main(["propagate", "--instance", cyclic5,
                       "--fix0", " 2 , 5 ", "--mode", "peek"])
        assert rc == cli.EXIT_OK
        assert "fixed0 added: 4" in capsys.readouterr().out


class TestGenSnarkCommand:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "j5.json"
        rc = cli.main(["gen-snark", "--n", "5", "--out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == 90

    def test_even_parameter_rejected(self, tmp_path):
        rc = cli.main(["gen-snark", "--n", "4",
                       "--out", str(tmp_path / "x.json")])
        assert rc == cli.EXIT_USAGE

    # Both raised an OSError through main, which exits 1, the code for
    # "infeasible".
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.json" if where == "missing-dir" \
            else tmp_path
        rc = cli.main(["gen-snark", "--n", "3", "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert str(out) in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_grid_to_file(self, cyclic5, snark3, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "instances": [cyclic5, snark3],
            "modes": ["nosym", "group"],
            "relabels": ["original"],
        }))
        report = tmp_path / "report.tsv"
        rc = cli.main(["experiment", "--grid", str(grid),
                       "--out", str(report)])
        assert rc == cli.EXIT_OK
        text = report.read_text()
        assert "runs\t4" in text
        assert "flower_snark_3\tgroup" in text

    def test_unwritable_report_is_usage_error(self, cyclic5, tmp_path,
                                              capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "instances": [cyclic5], "modes": ["nosym"],
            "relabels": ["original"]}))
        report = tmp_path / "missing" / "report.tsv"
        rc = cli.main(["experiment", "--grid", str(grid),
                       "--out", str(report)])
        assert rc == cli.EXIT_USAGE
        assert str(report) in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_report_fails_before_the_grid_runs(
            self, cyclic5, tmp_path, capsys, monkeypatch, where):
        def run_experiment(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli.bench, "run_experiment", run_experiment)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"instances": [cyclic5]}))
        report = tmp_path / "missing" / "report.tsv" \
            if where == "missing-dir" else tmp_path
        rc = cli.main(["experiment", "--grid", str(grid),
                       "--out", str(report)])
        assert rc == cli.EXIT_USAGE
        assert str(report) in capsys.readouterr().err

    def test_report_check_keeps_an_existing_report(self, cyclic5, tmp_path,
                                                   monkeypatch):
        def run_experiment(*args, **kwargs):
            raise ValueError("grid failed")

        monkeypatch.setattr(cli.bench, "run_experiment", run_experiment)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"instances": [cyclic5]}))
        report = tmp_path / "report.tsv"
        report.write_text("earlier report\n")
        rc = cli.main(["experiment", "--grid", str(grid),
                       "--out", str(report)])
        assert rc == cli.EXIT_USAGE
        assert report.read_text() == "earlier report\n"

    def test_stdout_report(self, cyclic5, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "instances": [cyclic5], "modes": ["nosym"],
            "relabels": ["original"]}))
        rc = cli.main(["experiment", "--grid", str(grid), "--out", "-"])
        assert rc == cli.EXIT_OK
        assert "time_shifted_geomean" in capsys.readouterr().out

    # --jobs is the one way to set parallelism; the grid has no "jobs" key.
    @pytest.mark.parametrize("extra", [{"bogus": 1}, {"jobs": 2}],
                             ids=["bogus", "jobs"])
    def test_unknown_grid_key_rejected(self, cyclic5, tmp_path, capsys, extra):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(dict(instances=[cyclic5], **extra)))
        assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
            == cli.EXIT_USAGE
        assert "unknown keys %s" % next(iter(extra)) \
            in capsys.readouterr().err

    def test_grid_without_instances_rejected(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"modes": ["nosym"]}))
        assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
            == cli.EXIT_USAGE
        assert "missing key 'instances'" in capsys.readouterr().err

    def test_seeds_grid_key_rejected(self, cyclic5, tmp_path, capsys):
        # Solves are deterministic, so the grid has no seed axis.
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"instances": [cyclic5], "seeds": [0, 1]}))
        assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
            == cli.EXIT_USAGE
        assert "seeds" in capsys.readouterr().err

    # Each of these died with a traceback, or passed 0 to open(), which
    # read and closed standard input, before the grid's types were checked.
    @pytest.mark.parametrize("doc, message", [
        ([1], "not a JSON object"),
        (5, "not a JSON object"),
        ({"instances": [0]}, "'instances' is not a list of strings"),
        ({"modes": "peek"}, "'modes' is not a list of strings"),
        ({"time_limit": "1"}, "'time_limit' is neither a number nor null"),
        ({"time_limit": True}, "'time_limit' is neither a number nor null"),
        ({"time_limit": float("nan")}, "time limit nan"),
        ({"time_limit": -1}, "time limit -1"),
    ], ids=["list", "number", "instance-int", "modes-str", "limit-str",
            "limit-bool", "limit-nan", "limit-negative"])
    def test_grid_types_rejected(self, cyclic5, tmp_path, capsys, doc,
                                 message):
        if isinstance(doc, dict) and "instances" not in doc:
            doc = dict(doc, instances=[cyclic5])
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
            == cli.EXIT_USAGE
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
def test_unreadable_grid_is_usage_error(data, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_bytes(data)
    assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
        == cli.EXIT_USAGE
    assert "error: grid %s: " % grid in capsys.readouterr().err


@pytest.mark.parametrize("data", UNREADABLE, ids=UNREADABLE_IDS)
def test_unreadable_grid_instance_is_input_error(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"instances": [str(path)]}))
    assert cli.main(["experiment", "--grid", str(grid), "--out", "-"]) \
        == cli.EXIT_USAGE
    assert "unreadable JSON" in capsys.readouterr().err


# A pool of J workers starts them all on its first task, and J below 1 ran
# serially.  Every value here is rejected before a pool exists.
@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1],
                         ids=["zero", "negative", "above-cpus"])
def test_experiment_jobs_outside_the_cpus_rejected(cyclic5, tmp_path, capsys,
                                                   jobs):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"instances": [cyclic5]}))
    assert cli.main(["experiment", "--grid", str(grid), "--out", "-",
                     "--jobs", str(jobs)]) == cli.EXIT_USAGE
    assert "--jobs %d outside 1..%d" % (jobs, os.cpu_count() or 1) \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "propagate", "oracle",
                                     "gen-snark", "experiment"])
def test_config_flag_rejected(command, cyclic5, tmp_path, capsys):
    conf = tmp_path / "c.json"
    conf.write_text("{}")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"instances": [cyclic5]}))
    args = {"solve": ["--instance", cyclic5],
            "propagate": ["--instance", cyclic5],
            "oracle": ["--instance", cyclic5],
            "gen-snark": ["--n", "3", "--out", str(tmp_path / "j3.json")],
            "experiment": ["--grid", str(grid), "--out", "-"]}[command]
    assert cli.main([command] + args + ["--config", str(conf)]) \
        == cli.EXIT_USAGE
    assert "unrecognized arguments: --config" in capsys.readouterr().err


class TestProcess:
    """``python -m cycfix.cli`` in a child process: the exit codes that
    ``sys.exit(main())`` hands to the shell."""

    def run(self, *argv):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "cycfix.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_snark_solve_exits_infeasible(self, tmp_path):
        path = str(tmp_path / "j3.json")
        made = self.run("gen-snark", "--n", "3", "--out", path)
        assert made.returncode == cli.EXIT_OK, made.stderr
        out = self.run("solve", "--instance", path, "--mode", "peek")
        assert out.returncode == cli.EXIT_INFEASIBLE, out.stderr
        assert "status: infeasible" in out.stdout

    def test_malformed_instance_exits_usage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "n": 0, "rows": []}')
        out = self.run("solve", "--instance", str(path))
        assert out.returncode == cli.EXIT_USAGE
        assert out.stderr.startswith("error: ")
