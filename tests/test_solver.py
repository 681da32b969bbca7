import random

import pytest

from cycfix import solver as solver_module
from cycfix.bench import gen_snark
from cycfix.core import FixState, Permutation
from cycfix.solver import (EPS, MODES, RELABELS, BinaryProgram, Row,
                           Settings, _row_propagate, _RowIndex,
                           node_propagate, solve)

from conftest import brute_force_optimum, planted_symmetric_bp


def simple_bp(n=4, rows=(), generators=(), objective=None):
    return BinaryProgram(
        n, list(objective) if objective else [1.0] * n,
        list(rows), None, list(generators))


class TestRowTypes:
    def test_row_make_sorts_and_validates(self):
        r = Row.make({2: 1.0, 0: -1.0}, "<=", 3.0)
        assert r.coeffs == ((0, -1.0), (2, 1.0))
        with pytest.raises(ValueError):
            Row.make({0: 1.0}, ">=", 0.0)

    def test_program_validation(self):
        with pytest.raises(ValueError):
            BinaryProgram(3, [1.0, 2.0], [], None, [])
        with pytest.raises(ValueError):
            BinaryProgram(3, [1.0] * 3, [], None,
                          [Permutation.identity(4)])

    def test_check_symmetry(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        rows = [Row.make({i: 1.0, (i + 1) % 3: 1.0}, "<=", 1.0)
                for i in range(3)]
        bp = simple_bp(3, rows, [gen], objective=[2.0, 2.0, 2.0])
        assert bp.check_symmetry(gen)
        bad = simple_bp(3, rows[:1], [gen], objective=[2.0, 2.0, 2.0])
        assert not bad.check_symmetry(gen)
        skew = simple_bp(3, rows, [gen], objective=[1.0, 2.0, 2.0])
        assert not skew.check_symmetry(gen)


class TestNodePropagate:
    def test_row_propagation_fixes_forced_entries(self):
        bp = simple_bp(3, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
                           Row.make({2: 1.0}, "==", 1.0)])
        res = node_propagate(bp, FixState(3, set(), {0}), Settings())
        assert res.feasible
        assert 1 in res.fixed0  # x0 = 1 forces x1 = 0
        assert 2 in res.fixed1  # equality row forces x2 = 1

    def test_row_conflict_is_infeasible(self):
        bp = simple_bp(2, [Row.make({0: 1.0, 1: 1.0}, "==", 2.0)])
        res = node_propagate(bp, FixState(2, {0}, set()), Settings())
        assert not res.feasible

    def test_nosym_ignores_generators(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        res = node_propagate(bp, FixState(3, {0}, set()),
                             Settings(mode="nosym"))
        assert res.fixed0 == frozenset({0})

    def test_group_mode_derives_symmetry_fixings(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        # x1 = 0 and the lex-leader constraints force x2 = x3 = 0
        res = node_propagate(bp, FixState(3, {0}, set()),
                             Settings(mode="group"))
        assert res.feasible
        assert res.fixed0 == frozenset({0, 1, 2})

    def test_peek_completes_the_cyclic_gap(self):
        gen = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        bp = simple_bp(5, [], [gen], objective=[1.0] * 5)
        fs = FixState(5, {1, 4}, set())
        nopeek = node_propagate(bp, fs.copy(), Settings(mode="nopeek"))
        peek = node_propagate(bp, fs.copy(), Settings(mode="peek"))
        assert nopeek.fixed0 == frozenset({1, 4})
        assert peek.fixed0 == frozenset({1, 3, 4})


def _full_rescan_reference(bp, fs):
    """The former row propagation loop: rescan every row until a full pass
    fixes nothing."""
    changed = True
    while changed:
        changed = False
        for row in bp.rows:
            lo = hi = 0.0
            free = []
            for i, a in row.coeffs:
                v = fs.value(i)
                if v is not None:
                    lo += a * v
                    hi += a * v
                else:
                    lo += min(a, 0.0)
                    hi += max(a, 0.0)
                    free.append((i, a))
            if lo > row.rhs + EPS:
                return False
            if row.sense == "==" and hi < row.rhs - EPS:
                return False
            for i, a in free:
                for v in (0, 1):
                    new_lo = lo - min(a, 0.0) + a * v
                    bad = new_lo > row.rhs + EPS
                    if not bad and row.sense == "==":
                        new_hi = hi - max(a, 0.0) + a * v
                        bad = new_hi < row.rhs - EPS
                    if bad:
                        if fs.value(i) == v:
                            return False
                        if fs.value(i) is None:
                            (fs.fixed1 if v == 0 else fs.fixed0).add(i)
                            changed = True
                        break
    return True


def _rand_rows_bp(rng, n):
    rows = []
    for _ in range(rng.randint(1, 7)):
        m = rng.randint(1, min(5, n))
        coeffs = {i: rng.choice((-3.0, -2.0, -1.0, -0.7, 0.1, 0.2, 1.0, 2.0))
                  for i in rng.sample(range(n), m)}
        # The rhs is the activity of a random 0/1 point, shifted up a
        # little on '<=' rows, so that each row alone is satisfiable.
        rhs = sum(a for a in coeffs.values() if rng.random() < 0.5)
        if rng.random() < 0.3:
            rows.append(Row.make(coeffs, "==", rhs))
        else:
            rows.append(Row.make(coeffs, "<=", rhs + rng.randint(0, 2)))
    return simple_bp(n, rows)


class TestRowQueue:
    """The watch-queue row propagation against the full-rescan loop."""

    def _outcome(self, prop, fs):
        out = fs.copy()
        ok = prop(out)
        return (ok, out.fixed0, out.fixed1) if ok else (ok,)

    def test_randomized_equivalence(self):
        rng = random.Random(20221)
        cases = fixing = infeasible = children = 0
        while cases < 600:
            n = rng.randint(2, 12)
            bp = _rand_rows_bp(rng, n)
            index = _RowIndex(bp)
            fs = FixState(n)
            for i in rng.sample(range(n), rng.randint(0, n // 3)):
                (fs.fixed0 if rng.random() < 0.5 else fs.fixed1).add(i)
            want = self._outcome(lambda f: _full_rescan_reference(bp, f), fs)
            got = self._outcome(lambda f: _row_propagate(index, f), fs)
            assert got == want, (bp, fs)
            cases += 1
            if not want[0]:
                infeasible += 1
                continue
            if len(want[1]) + len(want[2]) > len(fs.fixed0) + len(fs.fixed1):
                fixing += 1
            # A child: the fixpoint plus one branching fixing, seeded from
            # that entry's rows only.
            parent = FixState(n, want[1], want[2])
            free = parent.unfixed()
            if not free:
                continue
            i = rng.choice(free)
            child = parent.copy()
            (child.fixed0 if rng.random() < 0.5 else child.fixed1).add(i)
            want = self._outcome(lambda f: _full_rescan_reference(bp, f),
                                 child)
            got = self._outcome(lambda f: _row_propagate(index, f, (i,)),
                                child)
            assert got == want, (bp, child, i)
            children += 1
        # The cases reach every branch: new fixings, conflicts, children.
        assert fixing >= 150 and infeasible >= 100 and children >= 250

    def test_child_seed_wakes_only_the_branching_rows(self):
        bp = simple_bp(4, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
                           Row.make({2: 1.0, 3: 1.0}, "<=", 1.0)])
        index = _RowIndex(bp)
        assert index.watch == [[0], [0], [1], [1]]
        # x2 = 1 is not a fixpoint of row 1, but only x0's rows are woken.
        fs = FixState(4, set(), {0, 2})
        assert _row_propagate(index, fs, (0,))
        assert fs.fixed0 == {1}
        assert _row_propagate(index, fs)
        assert fs.fixed0 == {1, 3}


def _nested_loop_reference(fs, engine, rows, branched):
    """The former node loop: the rows, then the symmetry units run to their
    own fixpoint (passes repeated until one fixes nothing), until the units
    fix nothing.  Extends ``fs`` in place; returns (feasible, the number of
    symmetry passes that fixed something)."""
    stats = {}
    fixing_passes = 0
    wake = None if branched is None else (branched,)
    while True:
        if not _row_propagate(rows, fs, wake):
            return False, fixing_passes
        seen = fs.fixed0 | fs.fixed1
        while True:
            before = len(fs.fixed0) + len(fs.fixed1)
            if not engine.propagate(fs, stats):
                return False, fixing_passes
            if len(fs.fixed0) + len(fs.fixed1) == before:
                break
            fixing_passes += 1
        if len(fs.fixed0) + len(fs.fixed1) == len(seen):
            return True, fixing_passes
        wake = (fs.fixed0 | fs.fixed1) - seen


class TestOneFixpointLoop:
    """node_propagate's one loop against the former nested loop, at every
    node of whole searches: the same fixing sets, or both infeasible."""

    def _solve_checked(self, monkeypatch, bp, settings, tally):
        def checked(work, fs, settings, engine, stats, rows, branched):
            ref = fs.copy()
            ok, passes = _nested_loop_reference(ref, engine, rows, branched)
            res = node_propagate(work, fs, settings, engine, stats, rows,
                                 branched)
            assert res.feasible == ok
            if ok:
                assert (fs.fixed0, fs.fixed1) == (ref.fixed0, ref.fixed1)
            tally["nodes"] += 1
            tally["sym"] += passes >= 1
            tally["multi"] += passes >= 2
            return res
        monkeypatch.setattr(solver_module, "node_propagate", checked)
        return solve(bp, settings)

    @pytest.mark.parametrize("m", (3, 5))
    @pytest.mark.parametrize("mode", MODES)
    def test_snark_nodes(self, monkeypatch, m, mode):
        _, bp = gen_snark(m)
        tally = {"nodes": 0, "sym": 0, "multi": 0}
        for rl in RELABELS:
            res = self._solve_checked(
                monkeypatch, bp, Settings(mode=mode, relabel=rl), tally)
            assert res.status == "infeasible"
        # The cases reach nodes where the units fix entries, and in the
        # modes group, nopeek and peek nodes where the former loop's second
        # pass fixed more.
        if mode != "nosym":
            assert tally["sym"] >= 8
        if mode in ("group", "nopeek", "peek"):
            assert tally["multi"] >= 1

    def test_planted_nodes(self, monkeypatch):
        rng = random.Random(20226)
        tally = {"nodes": 0, "sym": 0, "multi": 0}
        for k in range(200):
            bp = planted_symmetric_bp(rng, rng.randint(4, 10))
            rl = RELABELS[k % len(RELABELS)]
            for mode in MODES:
                self._solve_checked(
                    monkeypatch, bp, Settings(mode=mode, relabel=rl), tally)
        assert tally["nodes"] >= 10000
        assert tally["sym"] >= 1000 and tally["multi"] >= 5


class TestSolve:
    def test_unconstrained_all_ones(self):
        bp = simple_bp(4)
        res = solve(bp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0)
        assert res.incumbent == (1, 1, 1, 1)

    def test_infeasible_rows(self):
        bp = simple_bp(2, [Row.make({0: 1.0}, "==", 1.0),
                           Row.make({0: 1.0}, "<=", 0.0)])
        assert solve(bp).status == "infeasible"

    def test_negative_objective_prefers_zero(self):
        bp = simple_bp(3, objective=[-1.0, -2.0, 3.0])
        res = solve(bp)
        assert res.incumbent == (0, 0, 1)
        assert res.objective == pytest.approx(3.0)

    def test_deterministic_given_seed(self):
        rng = random.Random(1)
        bp = planted_symmetric_bp(rng, 8)
        a = solve(bp, Settings(mode="peek", seed=7))
        b = solve(bp, Settings(mode="peek", seed=7))
        assert (a.status, a.objective, a.incumbent, a.nodes) == \
            (b.status, b.objective, b.incumbent, b.nodes)

    def test_time_limit_status(self):
        rng = random.Random(2)
        bp = planted_symmetric_bp(rng, 14)
        res = solve(bp, Settings(mode="nosym", time_limit=0.0))
        assert res.status == "timelimit"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("relabel", RELABELS)
    def test_all_configs_match_enumeration(self, mode, relabel):
        rng = random.Random(hash((mode, relabel)) & 0xFFFF)
        for _ in range(5):
            bp = planted_symmetric_bp(rng, rng.randint(4, 9))
            best = brute_force_optimum(bp)
            res = solve(bp, Settings(mode=mode, relabel=relabel))
            if best is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(best[0])
                assert bp.is_feasible(res.incumbent)
                assert bp.objective_value(res.incumbent) == \
                    pytest.approx(best[0])

    def test_incumbent_reported_in_original_labels(self):
        rng = random.Random(3)
        for _ in range(10):
            bp = planted_symmetric_bp(rng, 7)
            res = solve(bp, Settings(mode="peek", relabel="respect"))
            if res.status == "optimal":
                assert bp.is_feasible(res.incumbent)
                assert bp.objective_value(res.incumbent) == \
                    pytest.approx(res.objective)


class TestSafeguardCaps:
    def test_settings_env_override(self, monkeypatch):
        monkeypatch.setenv("CYCFIX_MAX_PERMS", "17")
        monkeypatch.setenv("CYCFIX_MAX_WEIGHT", "1234")
        assert Settings().perm_caps() == (17, 1234)

    def test_explicit_settings_win(self, monkeypatch):
        monkeypatch.setenv("CYCFIX_MAX_PERMS", "17")
        assert Settings(max_perms=3).perm_caps()[0] == 3

    def test_caps_bound_group_expansion(self):
        gen = Permutation.from_cycles(12, [tuple(range(1, 13))])
        bp = simple_bp(12, [], [gen], objective=[0.0] * 12)
        res = solve(bp, Settings(mode="group", max_perms=2))
        assert res.status == "optimal"


# (nodes, sym_fixings) of flower snark solves per relabeling; every one is
# infeasible.
SNARK_PINS = {
    (3, "nopeek"): {"original": (21, 4), "max": (21, 19),
                    "min": (17, 9), "respect": (17, 10)},
    (3, "peek"): {"original": (21, 4), "max": (21, 19),
                  "min": (17, 9), "respect": (17, 10)},
    (5, "nopeek"): {"original": (53, 6), "max": (113, 42),
                    "min": (51, 19), "respect": (51, 20)},
    (5, "peek"): {"original": (53, 6), "max": (113, 39),
                  "min": (51, 18), "respect": (51, 19)},
}


@pytest.mark.parametrize("m, mode", sorted(SNARK_PINS))
def test_snark_search_pinned(m, mode):
    _, bp = gen_snark(m)
    for rl, (nodes, fixings) in SNARK_PINS[m, mode].items():
        res = solve(bp, Settings(mode=mode, relabel=rl))
        assert (res.status, res.nodes, res.sym_fixings) == \
            ("infeasible", nodes, fixings), rl


# (nodes, sym_fixings) of flower snark solves in the modes whose work is row
# propagation; every one is infeasible.
SNARK_ROW_PINS = {
    (5, "original"): {"nosym": (299, 0), "gen": (53, 5), "group": (53, 6)},
    (5, "respect"): {"nosym": (531, 0), "gen": (67, 8), "group": (51, 20)},
    (7, "original"): {"nosym": (1331, 0), "gen": (225, 5),
                      "group": (193, 20)},
    (7, "respect"): {"nosym": (2627, 0), "gen": (315, 12),
                     "group": (193, 34)},
}


@pytest.mark.parametrize("m, rl", sorted(SNARK_ROW_PINS))
def test_snark_row_search_pinned(m, rl):
    _, bp = gen_snark(m)
    for mode, (nodes, fixings) in SNARK_ROW_PINS[m, rl].items():
        res = solve(bp, Settings(mode=mode, relabel=rl))
        assert (res.status, res.nodes, res.sym_fixings) == \
            ("infeasible", nodes, fixings), mode


class TestUndeclaredSymmetry:
    """max x3 s.t. x1 + x2 + x3 <= 1 with (1,2,3) declared: the cycle maps
    the objective onto x1, so it is no symmetry, and propagating it would
    fix x3 = 0 and report optimum 0."""

    def program(self):
        return simple_bp(3, [Row.make({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 1.0)],
                         [Permutation.from_cycles(3, [(1, 2, 3)])],
                         objective=[0.0, 0.0, 1.0])

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "nosym"])
    def test_symmetry_modes_reject(self, mode):
        with pytest.raises(ValueError, match="generator 1"):
            solve(self.program(), Settings(mode=mode))

    def test_nosym_ignores_generators(self):
        res = solve(self.program(), Settings(mode="nosym"))
        assert (res.status, res.objective) == ("optimal", 1.0)

    def test_check_generators_names_the_first_bad_one(self):
        good = Permutation.from_cycles(3, [(1, 2)])
        bp = simple_bp(3, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)],
                       [good, Permutation.identity(3),
                        Permutation.from_cycles(3, [(1, 3)])],
                       objective=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="generator 3"):
            bp.check_generators()
        bp.generators.pop()
        bp.check_generators()
