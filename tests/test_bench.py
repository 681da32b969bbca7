import json
import time

import pytest

from cycfix import bench as bench_module
from cycfix.bench import (ExperimentReport, InstanceError, RunRow, gen_snark,
                          instance_to_dict, parse_instance,
                          parse_instance_dict, run_experiment,
                          shifted_geomean, write_instance)
from cycfix.core import Permutation, is_monotone_ordered
from cycfix.solver import BinaryProgram, Row


def tiny_doc():
    return {
        "name": "tiny",
        "n": 3,
        "variables": ["a", "b", "c"],
        "objective": {"1": 1.0, "3": -2.0},
        "rows": [{"coeffs": {"1": 1.0, "2": 1.0}, "sense": "<=", "rhs": 1.0}],
        "generators": [[[1, 2, 3]]],
    }


class TestInstanceFormat:
    def test_parse_basics(self):
        name, bp = parse_instance_dict(tiny_doc())
        assert name == "tiny"
        assert bp.objective == (1.0, 0.0, -2.0)
        assert bp.rows[0].sense == "<="
        assert bp.generators[0].cycles() == [(1, 2, 3)]

    def test_round_trip_file(self, tmp_path):
        name, bp = parse_instance_dict(tiny_doc())
        path = tmp_path / "tiny.json"
        write_instance(name, bp, str(path))
        name2, bp2 = parse_instance(str(path))
        assert name2 == name
        assert instance_to_dict(name2, bp2) == instance_to_dict(name, bp)

    def test_snark_round_trip(self, tmp_path):
        name, bp = gen_snark(3)
        path = tmp_path / "j3.json"
        write_instance(name, bp, str(path))
        _, bp2 = parse_instance(str(path))
        assert instance_to_dict(name, bp2) == instance_to_dict(name, bp)

    def test_unknown_top_key_rejected(self):
        doc = tiny_doc()
        doc["bogus"] = 1
        with pytest.raises(InstanceError, match="bogus"):
            parse_instance_dict(doc)

    def test_unknown_row_key_rejected(self):
        doc = tiny_doc()
        doc["rows"][0]["slack"] = 0
        with pytest.raises(InstanceError, match="slack"):
            parse_instance_dict(doc)

    def test_duplicate_cycle_index_rejected(self):
        doc = tiny_doc()
        doc["generators"] = [[[1, 2, 1]]]
        with pytest.raises(InstanceError, match="generator 1"):
            parse_instance_dict(doc)

    def test_generator_out_of_range_rejected(self):
        doc = tiny_doc()
        doc["generators"] = [[[1, 4]]]
        with pytest.raises(InstanceError, match="generator 1"):
            parse_instance_dict(doc)

    def test_index_out_of_range_rejected(self):
        doc = tiny_doc()
        doc["objective"] = {"9": 1.0}
        with pytest.raises(InstanceError, match="outside"):
            parse_instance_dict(doc)

    def test_bad_sense_rejected(self):
        doc = tiny_doc()
        doc["rows"][0]["sense"] = ">="
        with pytest.raises(InstanceError, match="sense"):
            parse_instance_dict(doc)

    # Each of these died with a ValueError or TypeError traceback, or (rows
    # as an object) was read as no rows at all.
    @pytest.mark.parametrize("key, value, message", [
        ("rows", [{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": "abc"}],
         "row 1: rhs"),
        ("objective", {"1": "x"}, "objective: value 'x' at index 1"),
        ("objective", 5, "objective"),
        ("rows", [5], "row 1"),
        ("rows", [{"coeffs": [1.0], "sense": "<=", "rhs": 1.0}], "row 1"),
        ("rows", {}, "rows"),
        ("variables", 5, "variables"),
        ("generators", 5, "generators"),
        ("generators", [[[1, "b"]]], "generator 1"),
        ("generators", [[1, 2]], "generator 1"),
        # from_cycles took True as 1 and read the transposition (1,2).
        ("generators", [[[True, 2]]], "generator 1: cycle entry True"),
        ("generators", [[[1, False]]], "generator 1: cycle entry False"),
        ("n", True, "n must be"),
        # float() took these: a boolean, a numeric string, NaN, infinity.
        ("objective", {"1": True}, "objective: value True at index 1"),
        ("objective", {"2": "1e3"}, "objective: value '1e3' at index 2"),
        ("objective", {"1": float("nan")}, "objective: value nan"),
        ("objective", {"1": "nan"}, "objective: value 'nan'"),
        ("rows", [{"coeffs": {"1": "2"}, "sense": "<=", "rhs": 1.0}],
         "row 1: value '2' at index 1"),
        ("rows", [{"coeffs": {"1": False}, "sense": "<=", "rhs": 1.0}],
         "row 1: value False"),
        ("rows", [{"coeffs": {"1": float("-inf")}, "sense": "<=",
                   "rhs": 1.0}], "row 1: value -inf"),
        ("rows", [{"coeffs": {"1": 10 ** 400}, "sense": "<=", "rhs": 1.0}],
         "row 1: value 1000"),
        ("rows", [{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": False}],
         "row 1: rhs False"),
        ("rows", [{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": "1"}],
         "row 1: rhs '1'"),
        ("rows", [{"coeffs": {"1": 1.0}, "sense": "<=", "rhs": float("inf")}],
         "row 1: rhs inf"),
        # int() took these, so two spellings of one index overwrote each
        # other: {"1": 1.0, "01": 2.0} was the single coefficient 2.0 on x1.
        ("objective", {"1": 1.0, "01": 2.0}, "objective: index '01'"),
        ("objective", {" 2": 1.0}, "objective: index ' 2'"),
        ("objective", {"+2": 1.0}, r"objective: index '\+2'"),
        ("objective", {"0_1": 1.0}, "objective: index '0_1'"),
        ("objective", {"\u0661": 1.0}, "objective: index '\u0661'"),
        ("rows", [{"coeffs": {"2": 1.0, "02": 1.0}, "sense": "<=",
                   "rhs": 1.0}], "row 1: index '02'"),
        # str() made any value a name: {"a": 1} became "{'a': 1}".
        ("name", {"a": 1}, "name must be a string"),
        ("name", 7, "name must be a string"),
    ], ids=["rhs-str", "objective-str", "objective-int", "row-int",
            "coeffs-list", "rows-object", "variables-int", "generators-int",
            "cycle-str", "cycle-int", "cycle-true", "cycle-false", "n-bool",
            "objective-bool",
            "objective-numeric-str", "objective-nan", "objective-nan-str",
            "coeff-numeric-str", "coeff-bool", "coeff-inf", "coeff-huge-int",
            "rhs-bool", "rhs-numeric-str", "rhs-inf", "index-leading-zero",
            "index-space", "index-plus", "index-underscore",
            "index-non-ascii", "coeff-index-leading-zero", "name-object",
            "name-int"])
    def test_malformed_values_rejected(self, key, value, message):
        doc = {"name": "pair", "n": 2, "objective": {"1": 1.0, "2": 1.0},
               "rows": [{"coeffs": {"1": 1.0, "2": 1.0}, "sense": "<=",
                         "rhs": 1.0}],
               "generators": [[[1, 2]]]}
        parse_instance_dict(doc)
        doc[key] = value
        with pytest.raises(InstanceError, match=message):
            parse_instance_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "top level must be an object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "n"},
         "missing key 'n'"),
        (lambda doc: dict(doc, variables=["a", "b", "a"]),
         "variables must be 3 distinct names"),
        (lambda doc: dict(doc, rows=[{"coeffs": {"1": 1.0}, "sense": "<="}]),
         "row 1: missing key 'rhs'"),
    ], ids=["list", "no-n", "repeated-names", "row-no-rhs"])
    def test_malformed_document_rejected(self, edit, message):
        with pytest.raises(InstanceError, match=message):
            parse_instance_dict(edit(tiny_doc()))

    def test_json_error_has_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  not json\n")
        with pytest.raises(InstanceError, match="line"):
            parse_instance(str(path))

    def test_parse_time_follows_the_terms_not_n(self):
        # A row is parsed straight into its sparse dict: with n = 100,000
        # and 1,000 two-term rows, expanding each row to n floats took 3 s.
        n = 100_000
        doc = {"name": "wide", "n": n, "objective": {"1": 1.0},
               "rows": [{"coeffs": {str(k + 1): 1.0, str(n - k): -2.0},
                         "sense": "<=", "rhs": 1.0} for k in range(1000)]}
        start = time.perf_counter()
        _, bp = parse_instance_dict(doc)
        assert time.perf_counter() - start < 0.5
        assert bp.rows[0].coeffs == ((0, 1.0), (n - 1, -2.0))
        assert len(bp.rows) == 1000

    def test_zero_coefficients_leave_rows(self):
        doc = tiny_doc()
        doc["rows"][0]["coeffs"] = {"1": 0.0, "2": 3.0, "3": -0.0}
        assert parse_instance_dict(doc)[1].rows[0].coeffs == ((1, 3.0),)


class TestSnarkGenerator:
    def test_small_counts(self):
        name, bp = gen_snark(3)
        assert name == "flower_snark_3"
        assert bp.n == 54  # 18 edges x 3 colors
        partition = [r for r in bp.rows if r.sense == "=="]
        assert len(partition) == 18
        assert all(len(r.coeffs) == 3 for r in partition)
        packing = [r for r in bp.rows if r.sense == "<="]
        # 12 vertices of degree 3: 3 incident pairs each, 3 colors
        assert len(packing) == 12 * 3 * 3

    def test_edge_count_scales(self):
        _, bp = gen_snark(5)
        assert bp.n == 90

    def test_generators_are_symmetries(self):
        for m in (3, 5):
            _, bp = gen_snark(m)
            assert len(bp.generators) == 4
            assert all(bp.check_symmetry(g) for g in bp.generators)

    def test_lifted_rotation_order(self):
        for m in (3, 5, 7):
            _, bp = gen_snark(m)
            assert bp.generators[0].order() == 2 * m

    def test_reflection_is_involution(self):
        _, bp = gen_snark(5)
        assert bp.generators[1].order() == 2

    def test_color_generators(self):
        _, bp = gen_snark(3)
        assert bp.generators[2].order() == 3
        assert bp.generators[3].order() == 2

    def test_rotation_becomes_monotone_after_relabel(self):
        from cycfix.cyclic import relabel
        _, bp = gen_snark(3)
        plan = relabel(bp.generators, strategy="respect")
        assert is_monotone_ordered(plan.apply_to(bp.generators[0])) is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_snark(4)
        with pytest.raises(ValueError):
            gen_snark(1)


class TestShiftedGeomean:
    def test_equal_values(self):
        assert shifted_geomean([10.0, 10.0]) == pytest.approx(10.0)

    def test_zero_thirty(self):
        # (10 * 40) ** 0.5 - 10 = 10
        assert shifted_geomean([0.0, 30.0]) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shifted_geomean([])


class TestExperiment:
    def small_instance(self):
        gen = Permutation.from_cycles(4, [(1, 2, 3, 4)])
        rows = [Row.make({i: 1.0, (i + 1) % 4: 1.0}, "<=", 1.0)
                for i in range(4)]
        return "ring4", BinaryProgram(4, [1.0] * 4, rows, None, [gen])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([], ["nosym"], ["original"])
        with pytest.raises(ValueError):
            run_experiment([self.small_instance()], [], ["original"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([self.small_instance()], ["bogus"], ["original"])

    def test_grid_rows_sorted_and_complete(self):
        rep = run_experiment([self.small_instance()],
                             ["group", "nosym"], ["respect", "original"])
        keys = [(r.instance, r.mode, r.relabel) for r in rep.rows]
        assert keys == sorted(keys)
        assert len(rep.rows) == 4
        assert all(r.status == "optimal" for r in rep.rows)

    def test_every_cell_pays_for_its_set_up(self, row_index_builds):
        # Each cell solves a fresh copy of its program, as a worker process
        # does, so each builds its own set-up and row index, and the
        # caller's program keeps an empty set-up record.
        name, bp = self.small_instance()
        rep = run_experiment([(name, bp)], ["group", "nosym"],
                             ["respect", "original"])
        assert len(row_index_builds) == len(rep.rows) == 4
        assert not bp._setup.checked and not bp._setup.labelings

    def test_timed_out_row_reports_the_limit(self):
        rep = run_experiment([gen_snark(3)], ["nosym"], ["original"],
                             time_limit=0)
        (row,) = rep.rows
        assert (row.status, row.time) == ("timelimit", 0.0)

    def test_parallel_matches_serial(self):
        inst = [self.small_instance()]
        serial = run_experiment(inst, ["nosym", "peek"], ["original"])
        parallel = run_experiment(inst, ["nosym", "peek"], ["original"],
                                  jobs=2)
        assert [(r.instance, r.mode, r.status, r.nodes) for r in serial.rows] \
            == [(r.instance, r.mode, r.status, r.nodes)
                for r in parallel.rows]

    def test_parallel_matches_serial_on_a_solved_instance(self):
        # The workers get the program with the set-up its serial solves
        # left on it.
        inst = [gen_snark(3)]
        grid = (["nosym", "gen", "peek"], ["original", "respect"])
        serial = run_experiment(inst, *grid)
        parallel = run_experiment(inst, *grid, jobs=2)

        def counts(rep):
            return [(r.instance, r.mode, r.relabel, r.status, r.nodes,
                     r.sym_fixings) for r in rep.rows]

        assert counts(parallel) == counts(serial)

    def test_no_more_workers_than_cells(self, monkeypatch):
        started = []

        class FakePool:  # runs the cells in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(bench_module.concurrent.futures,
                            "ProcessPoolExecutor", FakePool)
        inst = [self.small_instance()]
        assert len(run_experiment(inst, ["nosym"], ["original"],
                                  jobs=2).rows) == 1
        assert started == []  # one cell runs without a pool
        assert len(run_experiment(inst, ["nosym", "gen"], ["original"],
                                  jobs=8).rows) == 2
        assert started == [2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment([self.small_instance()], ["nosym"], ["original"],
                           jobs=jobs)

    def test_bad_time_limit_rejected(self):
        with pytest.raises(ValueError, match="time limit"):
            run_experiment([self.small_instance()], ["nosym"], ["original"],
                           time_limit=float("nan"))

    def non_symmetric_instance(self):
        # (1,2) maps the objective's 2.0 onto x1's 1.0: no symmetry
        gen = Permutation.from_cycles(2, [(1, 2)])
        return "bad", BinaryProgram(2, [1.0, 2.0], [], None, [gen])

    def test_failures_become_rows(self):
        rep = run_experiment([self.non_symmetric_instance()], ["gen"],
                             ["original"])
        assert len(rep.rows) == 1
        assert rep.rows[0].status == "error:ValueError"
        assert "generator 1" in rep.rows[0].error

    def test_error_rows_keep_the_message_and_stay_out_of_times(self):
        rep = run_experiment([self.non_symmetric_instance(),
                              self.small_instance()],
                             ["gen"], ["original"])
        err = [r for r in rep.rows if r.failed]
        assert len(err) == 1 and err[0].error
        ok = [r for r in rep.rows if not r.failed]
        assert rep.times() == [ok[0].time]
        text = rep.to_text()
        assert "errors\t1" in text
        assert "total_time\t%.3f" % ok[0].time in text
        assert " ".join(err[0].error.split()) in text

    def test_all_error_report(self):
        rep = ExperimentReport(rows=[
            RunRow("a", "gen", "original", "error:ValueError", 0.0, 0, 0,
                   0.0, "generator 1 is not a symmetry"),
        ])
        text = rep.to_text()
        assert "errors\t1" in text
        assert "time_shifted_geomean\t-" in text
        assert "generator 1 is not a symmetry" in text

    def test_report_text(self):
        rep = ExperimentReport(rows=[
            RunRow("a", "nosym", "original", "optimal", 0.0, 5, 0, 0.0),
            RunRow("a", "peek", "original", "optimal", 30.0, 3, 2, 1.0),
        ])
        text = rep.to_text()
        lines = text.splitlines()
        assert lines[0].split("\t")[:4] == \
            ["instance", "mode", "relabel", "status"]
        assert "time_shifted_geomean\t10.000" in text
        assert "runs\t2" in text
        assert "solved\t2" in text
