import copy
import gc
import itertools
import random
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

from cycfix import core as core_module
from cycfix import cyclic as cyclic_module
from cycfix import solver as solver_module
from cycfix.bench import gen_snark
from cycfix.core import (FixState, Permutation, group_elements,
                         is_monotone_ordered)
from cycfix.imptree import propagate_set
from cycfix.oracle import complete_fixings_oracle
from cycfix.solver import (EPS, MODES, RELABELS, BinaryProgram, Row,
                           Settings, _row_propagate, _RowIndex,
                           _SymmetryEngine, node_propagate, solve)

from conftest import (CELLS, brute_force_optimum, monotone_cycle_on,
                      planted_symmetric_bp, rand_fixstate,
                      rand_ordered_monotone_group, rand_perm, solve_outcome)


def simple_bp(n=4, rows=(), generators=(), objective=None):
    return BinaryProgram(
        n, list(objective) if objective else [1.0] * n,
        list(rows), None, list(generators))


def engine_of(bp, mode):
    """The symmetry engine of a solve of bp in ``mode`` under bp's labels."""
    units = bp._setup.labeling(bp, "original", mode)[3]
    return _SymmetryEngine(units, mode)


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
        with pytest.raises(ValueError, match="names"):
            BinaryProgram(3, [1.0] * 3, [], ["x1", "x2"], [])

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
    """node_propagate extends the node's FixState in place and returns
    False when it is infeasible."""

    def test_row_propagation_fixes_forced_entries(self):
        bp = simple_bp(3, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
                           Row.make({2: 1.0}, "==", 1.0)])
        fs = FixState(3, set(), {0})
        assert node_propagate(bp, fs, Settings()) is True
        # x0 = 1 forces x1 = 0; the equality row forces x2 = 1
        assert (fs.fixed0, fs.fixed1) == ({1}, {0, 2})

    def test_row_conflict_is_infeasible(self):
        bp = simple_bp(2, [Row.make({0: 1.0, 1: 1.0}, "==", 2.0)])
        assert node_propagate(bp, FixState(2, {0}, set()), Settings()) \
            is False

    def test_inconsistent_fixings_are_infeasible(self):
        fs = FixState(2, {0}, {0})
        assert node_propagate(simple_bp(2), fs, Settings()) is False

    def test_nosym_ignores_generators(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        fs = FixState(3, {0}, set())
        assert node_propagate(bp, fs, Settings(mode="nosym")) is True
        assert (fs.fixed0, fs.fixed1) == ({0}, set())

    def test_group_mode_derives_symmetry_fixings(self):
        gen = Permutation.from_cycles(3, [(1, 2, 3)])
        bp = simple_bp(3, [], [gen], objective=[1.0] * 3)
        # x1 = 0 and the lex-leader constraints force x2 = x3 = 0
        fs = FixState(3, {0}, set())
        assert node_propagate(bp, fs, Settings(mode="group")) is True
        assert (fs.fixed0, fs.fixed1) == ({0, 1, 2}, set())

    def test_peek_completes_the_cyclic_gap(self):
        gen = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        bp = simple_bp(5, [], [gen], objective=[1.0] * 5)
        nopeek, peek = FixState(5, {1, 4}, set()), FixState(5, {1, 4}, set())
        assert node_propagate(bp, nopeek, Settings(mode="nopeek"))
        assert node_propagate(bp, peek, Settings(mode="peek"))
        assert (nopeek.fixed0, nopeek.fixed1) == ({1, 4}, set())
        assert (peek.fixed0, peek.fixed1) == ({1, 3, 4}, set())

    def test_peek_fallback_for_unordered_generator(self):
        # (1,3,2,4) has two descents, so nopeek/peek fall back to its
        # powers and run them as group does: no mode peeks them.
        gen = Permutation.from_cycles(4, [(1, 3, 2, 4)])
        bp = simple_bp(4, [], [gen], objective=[0.0] * 4)
        fs = FixState(4, {2}, set())
        oracle = complete_fixings_oracle(group_elements(gen), fs.copy())
        for mode in ("group", "nopeek", "peek"):
            got = fs.copy()
            assert node_propagate(bp, got, Settings(mode=mode)), mode
            assert (got.fixed0, got.fixed1) == ({2}, set()), mode
            assert got.fixed0 <= oracle.fixed0, mode
            assert got.fixed1 <= oracle.fixed1, mode


class TestPeekOnUnorderedGenerators:
    def test_randomized_peek_matches_nopeek(self):
        # Programs whose generators are all not ordered monotone, n <= 10:
        # planted-symmetry programs with rows, and 1-3 random permutations
        # without rows.  peek builds the units of nopeek and, from random
        # fixings, ends at the same verdict and fixings.
        rng = random.Random(20241)
        tally = {"fixed": 0, "infeasible": 0, "unchanged": 0}
        programs = 0
        while programs < 300:
            n = rng.randint(3, 10)
            if programs % 2:
                bp = planted_symmetric_bp(rng, n)
            else:
                bp = simple_bp(n, generators=[
                    rand_perm(rng, n) for _ in range(rng.randint(1, 3))])
            if any(is_monotone_ordered(g) is not None
                   for g in bp.generators):
                continue
            programs += 1
            units = {mode: engine_of(bp, mode).units
                     for mode in ("nopeek", "peek")}
            assert units["peek"] == units["nopeek"], bp.generators
            assert all(kind == "perms" for kind, _ in units["peek"])
            for _ in range(3):
                fs = rand_fixstate(rng, n, 0.15, 0.15)
                got = {}
                for mode in ("nopeek", "peek"):
                    out = fs.copy()
                    ok = node_propagate(bp, out, Settings(mode=mode))
                    got[mode] = (out.fixed0, out.fixed1) if ok else None
                assert got["peek"] == got["nopeek"], (bp.generators, fs)
                if got["peek"] is None:
                    tally["infeasible"] += 1
                elif got["peek"] != (fs.fixed0, fs.fixed1):
                    tally["fixed"] += 1
                else:
                    tally["unchanged"] += 1
        assert min(tally.values()) >= 100, tally


def _every_unit_reference(engine, fs):
    """The symmetry pass before units were certified: every unit runs, and
    the ordered path processes every block.  Extends ``fs`` in place;
    returns False when a unit finds the fixings infeasible."""
    peek = engine.mode == "peek"
    for kind, unit in engine.units:
        if kind == "ordered":
            res = cyclic_module.propagate_ordered_monotone(
                unit, fs, compute_fixings=peek)
        else:
            res = propagate_set(unit, fs)
        if not res.feasible:
            return False
        fs.fixed0 |= res.fixed0
        fs.fixed1 |= res.fixed1
    return True


class TestCertifiedUnits:
    def test_randomized_against_every_unit(self, monkeypatch):
        # Programs with 2-3 generators (random permutations, monotone
        # cycles, ordered monotone generators), n <= 10, in every mode: one
        # pass from random fixings ends as the pass that runs every unit.
        # The reference switches the ordered path's certificate off through
        # ``cyclic.fixes_nothing``; the counter checks that every feasible
        # reference run with an ordered unit reaches the switch.
        rng = random.Random(20232)
        tally = {"fixed": 0, "infeasible": 0, "unchanged": 0}
        calls = []
        reached = 0

        def switched_off(*args):
            calls.append(args)
            return False

        for _ in range(400):
            n = rng.randint(4, 10)
            gens = []
            for _ in range(rng.randint(2, 3)):
                r = rng.random()
                if r < 0.3:
                    gens.append(rand_perm(rng, n))
                elif r < 0.6:
                    gens.append(monotone_cycle_on(
                        rng.sample(range(n), rng.randint(2, n)), n))
                else:
                    gens.append(rand_ordered_monotone_group(rng, n).generator)
            bp = simple_bp(n, generators=gens)
            for mode in MODES:
                engine = engine_of(bp, mode)
                for _ in range(3):
                    fs = rand_fixstate(rng, n, 0.15, 0.15)
                    ref = fs.copy()
                    mark = len(calls)
                    with monkeypatch.context() as m:
                        m.setattr(cyclic_module, "fixes_nothing",
                                  switched_off)
                        ok = _every_unit_reference(engine, ref)
                    if ok and any(kind == "ordered"
                                  for kind, _ in engine.units):
                        assert len(calls) > mark, (gens, mode, fs)
                        reached += 1
                    before = len(fs.fixed0) + len(fs.fixed1)
                    assert engine.propagate(fs) is ok, (gens, mode, ref)
                    if not ok:
                        tally["infeasible"] += 1
                        continue
                    assert (fs.fixed0, fs.fixed1) == (ref.fixed0, ref.fixed1)
                    tally["fixed" if len(fs.fixed0) + len(fs.fixed1) > before
                          else "unchanged"] += 1
        assert min(tally.values()) >= 300, tally
        assert reached >= 1000, reached


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


def _rand_rows(rng, n):
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
    return rows


def _layout(index):
    """``(wake, settle, clause)`` of an index as plain lists: each settle
    pair as its two lists, sorted, and each clause list as a list."""
    settle = tuple([(sorted(zeros), sorted(ones)) for zeros, ones in pairs]
                   for pairs in index.settle)
    return index.wake, settle, [list(rows) for rows in index.clause]


def _index_reference(bp):
    """``(wake, settle, clause)`` of :class:`_RowIndex` from their
    definitions, laid out as :func:`_layout` lays out an index.

    Fixing i to v tightens a row when it raises the row's min activity, or
    lowers an '==' row's max activity.  It settles the row when the row is
    exact and, with i at v, the row's one satisfying 0/1 completion puts
    every other term at its value at min activity; each such term j at its
    value w is an implication i = v => j = w, and ``settle[v][i]`` is the
    pair (the j with w = 0, the j with w = 1) over all of them.  A clause
    row is an '==' row whose coeffs and rhs are all 1; fixing one of its
    entries to 0 lists the row's entries in ``clause``.  Every other
    tightened row is woken.  An exact row that every 0/1 point satisfies
    is in no list.
    """
    wake = tuple([[] for _ in range(bp.n)] for _ in (0, 1))
    implied = tuple([(set(), set()) for _ in range(bp.n)] for _ in (0, 1))
    clause = [[] for _ in range(bp.n)]
    for r, row in enumerate(bp.rows):
        exact = all(x % 1 == 0 for x in (row.rhs,) + tuple(
            a for _i, a in row.coeffs))
        is_clause = row.sense == "==" and row.rhs == 1 and all(
            a == 1 for _i, a in row.coeffs)

        def holds(act, row=row):
            return act == row.rhs if row.sense == "==" else act <= row.rhs

        points = itertools.product((0, 1), repeat=len(row.coeffs))
        if exact and all(holds(sum(a * y for (_i, a), y in
                                   zip(row.coeffs, x))) for x in points):
            continue
        for i, a in row.coeffs:
            others = [(j, b) for j, b in row.coeffs if j != i]
            at_min = tuple(int(b < 0) for _j, b in others)
            for v in (0, 1):
                if a == 0 or (v == int(a < 0) and row.sense != "=="):
                    continue
                fits = [x for x in itertools.product((0, 1),
                                                     repeat=len(others))
                        if holds(a * v + sum(b * y for (_j, b), y in
                                             zip(others, x)))]
                if exact and fits == [at_min]:
                    for (j, _b), w in zip(others, at_min):
                        implied[v][i][w].add(j)
                elif is_clause and v == 0:
                    clause[i].append(tuple(j for j, _b in row.coeffs))
                else:
                    wake[v][i].append(r)
    settle = tuple([(sorted(zeros), sorted(ones)) for zeros, ones in pairs]
                   for pairs in implied)
    return wake, settle, clause


class _Spy:
    """Wraps the settle pairs and clause rows of an index, so that
    :meth:`run` tells whether a settle walk fixed an entry or found a
    clash (the run returned False in the middle of a walk), and whether a
    clause scan forced an entry or found its row violated (the run
    returned False right after a scan that went through the whole row and
    found no entry free)."""

    def __init__(self, index):
        self.fs = None
        spy = self

        class Walk(list):
            def __iter__(self):
                spy._event("walk")
                for j in list.__iter__(self):
                    free = not spy.fs.is_fixed(j)
                    yield j
                    spy.settle_fixed |= free and spy.fs.is_fixed(j)
                spy.last = None

        class Scan(tuple):
            def __iter__(self):
                spy._event(None)
                yield from tuple.__iter__(self)
                # The handler saw no entry at 1 and at most one free.
                spy.last = "scanned"
                spy.free = [j for j in tuple.__iter__(self)
                            if not spy.fs.is_fixed(j)]

        self.index = index
        for pairs in index.settle:
            pairs[:] = [(Walk(zeros), Walk(ones)) for zeros, ones in pairs]
        index.clause[:] = [tuple(map(Scan, rows)) for rows in index.clause]

    def _event(self, kind):
        if self.last == "scanned":
            self.clause_forced |= any(map(self.fs.is_fixed, self.free))
        self.last = kind

    def run(self, fs, seed=None):
        self.fs, self.last = fs, None
        self.settle_fixed = self.clause_forced = False
        ok = _row_propagate(self.index, fs, seed)
        self.settle_conflict = not ok and self.last == "walk"
        self.clause_conflict = not ok and self.last == "scanned" and \
            not self.free
        self._event(None)
        return ok

    def tally(self, counts):
        for name in ("settle_fixed", "settle_conflict", "clause_forced",
                     "clause_conflict"):
            counts[name] += getattr(self, name)


def _clause_row(rng, n):
    """x_a + x_b + ... == 1 over 1-4 entries: a clause row."""
    return Row.make({i: 1.0 for i in rng.sample(range(n), rng.randint(
        1, min(4, n)))}, "==", 1.0)


class TestRowQueue:
    """The row queue against the full-rescan loop."""

    def _outcome(self, prop, fs):
        out = fs.copy()
        ok = prop(out)
        return (ok, out.fixed0, out.fixed1) if ok else (ok,)

    def test_randomized_equivalence(self):
        rng = random.Random(20221)
        cases = fixing = infeasible = children = mixed = neg_eq = 0
        inexact = 0
        counts = dict.fromkeys(("settle_fixed", "settle_conflict",
                                "clause_forced", "clause_conflict"), 0)
        while cases < 600:
            n = rng.randint(2, 12)
            rows = _rand_rows(rng, n)
            if cases % 2:
                # x_a - x_b (+ x_c - x_d) == 0 seldom fixes anything alone,
                # so seeds often meet an '==' row with negative coeffs.
                ends = rng.sample(range(n), 2 * min(2, n // 2))
                rows.append(Row.make(
                    {i: (1.0, -1.0)[k % 2] for k, i in enumerate(ends)},
                    "==", 0.0))
            if cases % 3:
                rows.append(_clause_row(rng, n))
            bp = simple_bp(n, rows)
            index = _RowIndex(bp)
            assert _layout(index) == _index_reference(bp), bp
            spy = _Spy(index)
            inexact += any(row.rhs % 1 or any(a % 1 for _i, a in row.coeffs)
                           for row in bp.rows)
            fs = FixState(n)
            for i in rng.sample(range(n), rng.randint(0, n // 3)):
                (fs.fixed0 if rng.random() < 0.5 else fs.fixed1).add(i)
            want = self._outcome(lambda f: _full_rescan_reference(bp, f), fs)
            got = self._outcome(spy.run, fs)
            assert got == want, (bp, fs)
            spy.tally(counts)
            cases += 1
            if not want[0]:
                infeasible += 1
                continue
            if len(want[1]) + len(want[2]) > len(fs.fixed0) + len(fs.fixed1):
                fixing += 1
            # Children of the fixpoint: one branching fixing, then several
            # new entries of mixed values as the symmetry pass adds them,
            # each seeded from the seeded entries' lists only.
            parent = FixState(n, want[1], want[2])
            free = parent.unfixed()
            for k in (1, rng.randint(2, 4)):
                if len(free) < k:
                    break
                seed = rng.sample(free, k)
                child = parent.copy()
                for i in seed:
                    (child.fixed0 if rng.random() < 0.5
                     else child.fixed1).add(i)
                want = self._outcome(
                    lambda f: _full_rescan_reference(bp, f), child)
                got = self._outcome(lambda f: spy.run(f, seed), child)
                assert got == want, (bp, child, seed)
                spy.tally(counts)
                children += 1
                mixed += bool(child.fixed0 & set(seed)) and \
                    bool(child.fixed1 & set(seed))
                neg_eq += any(row.sense == "==" and a < 0 and i in seed
                              for row in bp.rows for i, a in row.coeffs)
        # The cases reach every branch: new fixings, conflicts, children,
        # mixed-value seeds and seeds in '==' rows with negative coeffs.
        assert fixing >= 150 and infeasible >= 100 and children >= 250
        assert mixed >= 120 and neg_eq >= 80, (mixed, neg_eq)
        # ... settle walks that fix entries or find a clash, clause scans
        # that force an entry or find the row violated, and programs with
        # a row that is not exact, which never settles.
        assert counts["settle_fixed"] >= 60 and \
            counts["settle_conflict"] >= 5, counts
        assert counts["clause_forced"] >= 30 and \
            counts["clause_conflict"] >= 20, counts
        assert inexact >= 400, inexact

        # The rows of a flower snark settle or are clause rows; halved,
        # every coeff is 0.5, no row is exact or a clause row, none
        # settles, and the queue alone reaches the same fixpoints.
        _, bp = gen_snark(3)
        half = simple_bp(bp.n, [
            Row.make({i: a * 0.5 for i, a in row.coeffs}, row.sense,
                     row.rhs * 0.5) for row in bp.rows])
        index, index_half = _RowIndex(bp), _RowIndex(half)
        assert any(zeros for zeros, _ones in index.settle[1])
        assert any(index.clause)
        assert not any(zeros or ones for pairs in index_half.settle
                       for zeros, ones in pairs)
        assert not any(index_half.clause)
        rng = random.Random(20222)
        feasible = 0
        for _ in range(200):
            p = rng.uniform(0.0, 0.1)
            fs = rand_fixstate(rng, bp.n, p, p)
            # The fixpoint, then a child of it seeded with one fixing.
            for seed in (None, (rng.randrange(bp.n),)):
                if seed is not None:
                    if not want[0] or seed[0] in want[1] | want[2]:
                        break
                    fs = FixState(bp.n, want[1], want[2])
                    (fs.fixed1 if rng.random() < 0.5 else fs.fixed0).add(
                        seed[0])
                want = self._outcome(
                    lambda f: _full_rescan_reference(bp, f), fs)
                for ix in (index, index_half):
                    assert self._outcome(
                        lambda f: _row_propagate(ix, f, seed), fs) == want
                feasible += want[0]
        assert feasible >= 100

    def test_dfs_sequences_match_the_full_rescan(self):
        # Random search paths, branched as solve branches: the 1-child is
        # a copy of the node, the 0-child takes over the node's state, and
        # each child is seeded with its branching entry alone.  Every
        # node's fixings equal the full rescan's.  The programs mix clause
        # rows (single-term x_a == 1 among them), packing pairs, general
        # rows, '==' rows with a negative coeff and '==' rows with rhs 1
        # and a coeff of 2; the last two kinds are no clause rows, so
        # their 0-fixings stay on the queue.
        rng = random.Random(20261)
        nodes = infeasible = single = 0
        counts = dict.fromkeys(("settle_fixed", "settle_conflict",
                                "clause_forced", "clause_conflict"), 0)
        for _ in range(300):
            n = rng.randint(3, 12)
            rows = [_clause_row(rng, n) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 4)):
                rows.append(Row.make(dict.fromkeys(rng.sample(range(n), 2),
                                                   1.0), "<=", 1.0))
            rows += _rand_rows(rng, n)[:2]
            queued = []
            for coeffs, rhs in (((1.0, -1.0), 0.0),
                                ((-1.0, -1.0, -1.0), -1.0),
                                ((2.0, 1.0, 1.0), 1.0)):
                if rng.random() < 0.5:
                    queued.append(Row.make(dict(zip(rng.sample(
                        range(n), len(coeffs)), coeffs)), "==", rhs))
            rows += queued
            rng.shuffle(rows)
            bp = simple_bp(n, rows)
            index = _RowIndex(bp)
            assert _layout(index) == _index_reference(bp), bp
            single += any(len(row.coeffs) == 1 and row.sense == "=="
                          for row in bp.rows)
            assert sum(map(len, index.clause)) == sum(
                len(row.coeffs) for row in bp.rows
                if row.sense == "==" and row.rhs == 1 and
                all(a == 1 for _i, a in row.coeffs))
            for row in queued:
                r = bp.rows.index(row)
                assert any(r in index.wake[0][i] for i, _a in row.coeffs)
            spy = _Spy(index)
            stack = [(FixState(n), None)]
            for _ in range(60):
                if not stack:
                    break
                fs, branched = stack.pop()
                seed = None if branched is None else (branched,)
                want = self._outcome(
                    lambda f: _full_rescan_reference(bp, f), fs)
                ok = spy.run(fs, seed)
                assert ((ok, fs.fixed0, fs.fixed1) if ok else (ok,)) == \
                    want, (bp, branched)
                spy.tally(counts)
                nodes += 1
                if not ok:
                    infeasible += 1
                    continue
                free = fs.unfixed()
                if not free:
                    continue
                i = rng.choice(free)
                one = fs.copy()
                one.fixed1.add(i)
                fs.fixed0.add(i)
                children = [(fs, i), (one, i)]
                rng.shuffle(children)
                stack += children
        assert nodes >= 2500 and infeasible >= 200, (nodes, infeasible)
        assert single >= 120, single
        assert min(counts.values()) >= 40, counts

    @pytest.mark.parametrize("m", (5, 7))
    def test_snark_rows_never_reach_the_queue_below_the_root(self, m):
        # Every row of a flower snark is a packing pair, settled by a
        # 1-fixing, or an edge's partition row, a clause row: no fixing
        # wakes a row.  Each colour's 1-fixing implies 0 for the edge's
        # two other colours and for the colour on the 4 adjacent edges.
        _, bp = gen_snark(m)
        index = _RowIndex(bp)
        assert not any(any(lists) for lists in index.wake)
        partition = [tuple(i for i, _a in row.coeffs) for row in bp.rows
                     if row.sense == "=="]
        assert len(partition) == bp.n // 3
        for entries in partition:
            for i in entries:
                assert index.clause[i] == (entries,)
        assert [len(zeros) for zeros, _ones in index.settle[1]] == \
            [6] * bp.n
        assert not any(ones for _zeros, ones in index.settle[1])
        assert not any(zeros or ones for zeros, ones in index.settle[0])

    def test_child_seed_wakes_only_the_branching_rows(self):
        bp = simple_bp(4, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0),
                           Row.make({2: 1.0, 3: 1.0}, "<=", 1.0)])
        index = _RowIndex(bp)
        # A 1-fixing settles its packing row: no row is left to wake.
        assert _layout(index) == (
            ([[], [], [], []], [[], [], [], []]),
            ([([], [])] * 4, [([1], []), ([0], []), ([3], []), ([2], [])]),
            [[], [], [], []])
        # x2 = 1 is not a fixpoint of row 1, but only x0's rows are settled.
        fs = FixState(4, set(), {0, 2})
        assert _row_propagate(index, fs, (0,))
        assert fs.fixed0 == {1}
        assert _row_propagate(index, fs)
        assert fs.fixed0 == {1, 3}

    # A row over x0, x1, x2 with one coefficient, and how a fixing of x0
    # to 0 and to 1 handles it: None when the fixing does not tighten the
    # row, else "settle", "clause" or "wake".  A tightened row is handled
    # in exactly one way.
    @pytest.mark.parametrize("sense, coeff, rhs, handled", [
        ("<=", 1.0, 1.0, (None, "settle")),
        ("<=", -1.0, -2.0, ("settle", None)),
        ("==", 1.0, 1.0, ("clause", "settle")),
        ("==", -1.0, -1.0, ("wake", "wake")),
    ], ids=["le-pos", "le-neg", "eq-pos", "eq-neg"])
    def test_a_fixing_queues_the_rows_it_tightens(self, sense, coeff, rhs,
                                                   handled):
        index = _RowIndex(simple_bp(3, [
            Row.make({0: coeff, 1: coeff, 2: coeff}, sense, rhs)]))
        wake, settle, clause = _layout(index)
        for v in (0, 1):
            # Settled, x1 and x2 go to their values at min activity.
            w = int(coeff < 0)
            assert settle[v][0] == ((([1, 2], []) if w == 0 else
                                     ([], [1, 2])) if handled[v] == "settle"
                                    else ([], []))
            assert clause[0] == ([(0, 1, 2)] if handled[0] == "clause"
                                 else [])
            assert wake[v][0] == ([0] if handled[v] == "wake" else [])
            # x0 = v and x1 = 1 - v make the row force x2 in every case,
            # but seeded with x0 alone it does so only when it is settled
            # or queued.  A clause scan applies only the rules of x0 = 0:
            # with x1 at 1 it forces nothing (x1's own 1-fixing settles
            # the row), and with x1 at 0 it forces x2 to 1.
            fs = FixState(3)
            (fs.fixed1 if v else fs.fixed0).add(0)
            (fs.fixed0 if v else fs.fixed1).add(1)
            assert _row_propagate(index, fs, (0,))
            assert fs.is_fixed(2) == (handled[v] in ("settle", "wake")), \
                (sense, coeff, v)
            assert _row_propagate(index, fs)
            assert fs.is_fixed(2)
            if handled[v] == "clause":
                fs = FixState(3, {0, 1})
                assert _row_propagate(index, fs, (0,))
                assert fs.fixed1 == {2}
                fs = FixState(3, {0, 1, 2})
                assert not _row_propagate(index, fs, (0,))


def _nested_loop_reference(fs, engine, rows, branched):
    """The former node loop: the rows, then the symmetry units run to their
    own fixpoint (passes repeated until one fixes nothing), until the units
    fix nothing.  Extends ``fs`` in place; returns (feasible, the number of
    symmetry passes that fixed something)."""
    fixing_passes = 0
    wake = None if branched is None else (branched,)
    while True:
        if not _row_propagate(rows, fs, wake):
            return False, fixing_passes
        seen = fs.fixed0 | fs.fixed1
        while True:
            before = len(fs.fixed0) + len(fs.fixed1)
            if not engine.propagate(fs):
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
        def checked(work, fs, settings, engine, rows, branched):
            ref = fs.copy()
            ok, passes = _nested_loop_reference(ref, engine, rows, branched)
            feasible = node_propagate(work, fs, settings, engine, rows,
                                      branched)
            assert feasible is ok
            if ok:
                assert (fs.fixed0, fs.fixed1) == (ref.fixed0, ref.fixed1)
            tally["nodes"] += 1
            tally["sym"] += passes >= 1
            tally["multi"] += passes >= 2
            return feasible
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
        a = solve(bp, Settings(mode="peek"))
        b = solve(bp, Settings(mode="peek"))
        assert (a.status, a.objective, a.incumbent, a.nodes) == \
            (b.status, b.objective, b.incumbent, b.nodes)

    def test_time_limit_status(self):
        rng = random.Random(2)
        bp = planted_symmetric_bp(rng, 14)
        res = solve(bp, Settings(mode="nosym", time_limit=0.0))
        assert res.status == "timelimit"

    # NaN never timed out (every comparison with it is false), and -1
    # stopped at once as if that were a time limit.
    @pytest.mark.parametrize("limit", [float("nan"), -1, -0.5, True, "1"],
                             ids=["nan", "minus-one", "negative", "bool",
                                  "str"])
    def test_bad_time_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="time limit"):
            Settings(time_limit=limit)

    def test_unknown_relabel_rejected(self):
        with pytest.raises(ValueError, match="relabel"):
            Settings(relabel="x")

    def test_infinite_time_limit_is_no_limit(self):
        res = solve(simple_bp(4), Settings(time_limit=float("inf")))
        assert res.status == "optimal"

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
    def test_caps_bound_group_expansion(self, monkeypatch):
        gen = Permutation.from_cycles(12, [tuple(range(1, 13))])
        bp = simple_bp(12, [], [gen], objective=[0.0] * 12)
        monkeypatch.setattr(core_module, "MAX_POWERS", 2)
        engine = engine_of(bp, "group")
        assert [len(elems) for _kind, elems in engine.units] == [2]
        res = solve(bp, Settings(mode="group"))
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
    (7, "nopeek"): {"original": (193, 20), "respect": (193, 34)},
    (7, "peek"): {"original": (193, 20), "respect": (193, 31)},
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


def test_peek_on_coprime_ordered_blocks():
    # Monotone cycles of lengths 2, 3, 5, 7, 11, 13 on consecutive
    # positions: a group of order 30030 acting on 41 entries.
    cycles, pos = [], 1
    for k in (2, 3, 5, 7, 11, 13):
        cycles.append(tuple(range(pos, pos + k)))
        pos += k
    bp = simple_bp(41, [Row.make({i: 1.0 for i in range(10)}, "<=", 4.0),
                        Row.make({i: -1.0 for i in range(10, 28)}, "<=",
                                 -9.0)],
                   [Permutation.from_cycles(41, cycles)])
    nopeek = solve(bp, Settings(mode="nopeek"))
    peek = solve(bp, Settings(mode="peek"))
    assert (nopeek.status, nopeek.objective) == ("optimal", 35.0)
    assert (peek.status, peek.objective) == ("optimal", 35.0)
    assert bp.objective_value(peek.incumbent) == pytest.approx(35.0)
    assert (nopeek.nodes, nopeek.sym_fixings) == (127, 112)
    assert (peek.nodes, peek.sym_fixings) == (121, 118)


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
        replace(bp, generators=bp.generators[:-1]).check_generators()


class TestSetUpReuse:
    """A program is a value that keeps its set-up across solves; reusing it
    must never change an answer or a count."""

    def test_a_program_cannot_change(self):
        bp = planted_symmetric_bp(random.Random(2524), 6)
        for name, value in (("n", 7), ("objective", [0.0] * 6),
                            ("rows", []), ("names", None),
                            ("generators", []), ("_setup", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(bp, name, value)
        for name in ("objective", "rows", "names", "generators"):
            with pytest.raises(TypeError):
                getattr(bp, name)[0] = getattr(bp, name)[0]

    def test_any_order_matches_a_fresh_program(self, row_index_builds):
        rng = random.Random(2525)
        for _ in range(100):
            pristine = planted_symmetric_bp(rng, rng.randint(4, 9))
            bp = copy.deepcopy(pristine)
            cells = CELLS[:]
            rng.shuffle(cells)
            for mode, rl in cells:
                fresh = copy.deepcopy(pristine)
                assert solve_outcome(bp, mode, rl) == \
                    solve_outcome(fresh, mode, rl), (mode, rl)
            labs = bp._setup.labelings
            assert set(labs) == set(RELABELS)
            # 20 solves of bp built one row index per labeling
            works = [bp if lab[0] is None else lab[0] for lab in labs.values()]
            assert sum(any(b is w for w in works)
                       for b in row_index_builds) == len(RELABELS)

    def test_copies_give_the_same_answers(self):
        rng = random.Random(2523)
        for _ in range(10):
            bp = planted_symmetric_bp(rng, rng.randint(4, 8))
            want = {cell: solve_outcome(bp, *cell) for cell in CELLS}
            for clone in (copy.copy(bp), copy.deepcopy(bp)):
                assert clone == bp
                for cell in CELLS:
                    assert solve_outcome(clone, *cell) == want[cell], cell

    def test_mutation_after_a_solve_starts_afresh(self):
        rng = random.Random(2526)

        def bump_moved_entry(bp):
            i = next(i for i, j in enumerate(bp.generators[0].image)
                     if i != j)
            objective = list(bp.objective)
            objective[i] += 1.0
            return replace(bp, objective=objective)

        def scale_objective(bp):
            return replace(bp, objective=[3.0 * c + 1.0
                                          for c in bp.objective])

        def replace_row(bp):
            rows = list(bp.rows)
            k = rng.randrange(len(rows))
            rows[k] = Row.make({rng.randrange(bp.n): 1.0}, "<=", 0.0)
            return replace(bp, rows=rows)

        def drop_rows(bp):
            return replace(bp, rows=[])

        def add_non_symmetry(bp):
            while True:
                g = rand_perm(rng, bp.n)
                if not bp.check_symmetry(g):
                    break
            new = replace(bp, generators=bp.generators + (g,))
            with pytest.raises(ValueError, match="generator 2"):
                solve(new, Settings(mode="gen"))
            return new

        def integral_objective(bp):
            return replace(bp, objective=map(int, bp.objective))

        mutations = (bump_moved_entry, scale_objective, replace_row,
                     drop_rows, add_non_symmetry, integral_objective)
        tally = {"ValueError": 0, "moved": 0, "same": 0}
        for _ in range(20):
            bp = planted_symmetric_bp(rng, rng.randint(4, 8))
            before = {cell: solve_outcome(bp, *cell) for cell in CELLS}
            for mutate in mutations:
                new = mutate(bp)
                assert new._setup is not bp._setup
                fresh = BinaryProgram(new.n, list(new.objective),
                                      list(new.rows), list(new.names),
                                      list(new.generators))
                cells = CELLS[:]
                rng.shuffle(cells)
                for cell in cells:
                    got = solve_outcome(new, *cell)
                    assert got == solve_outcome(fresh, *cell), (mutate, cell)
                    tally["ValueError" if got[0] == "ValueError" else
                          "same" if got == before[cell] else "moved"] += 1
            # the replaced programs left the original's answers alone
            for cell in CELLS:
                assert solve_outcome(bp, *cell) == before[cell], cell
        assert min(tally.values()) >= 100, tally

    def test_a_new_number_type_is_a_new_content(self):
        # Independent sets of a 4-cycle: the objective 1.0 and the
        # objective 1 compare equal, but a solve reports a sum of the
        # program's own numbers, as a fresh program's solve does.
        rows = [Row.make({i: 1.0, (i + 1) % 4: 1.0}, "<=", 1.0)
                for i in range(4)]
        gen = Permutation.from_cycles(4, [(1, 2, 3, 4)])
        bp = simple_bp(4, rows, [gen], objective=[1.0] * 4)
        settings = Settings(mode="peek", relabel="respect")
        assert repr(solve(bp, settings).objective) == "2.0"
        assert repr(solve(replace(bp, objective=[1, 1, 1, 1]),
                          settings).objective) == "2"
        assert repr(solve(bp, settings).objective) == "2.0"

    def test_node_propagate_reuses_the_record(self, row_index_builds):
        bp = simple_bp(3, [Row.make({0: 1.0, 1: 1.0}, "<=", 1.0)])
        for _ in range(3):
            fs = FixState(3, set(), {0})
            assert node_propagate(bp, fs, Settings())
            assert fs.fixed0 == {1}
        assert row_index_builds == [bp]

    @pytest.mark.parametrize("entry", [-1, 5, 1.0])
    def test_row_entries_are_range_checked(self, entry):
        # Entry -1 would alias x3, and 5 would index past the row index.
        ok = Row.make({0: 1.0}, "<=", 1.0)
        with pytest.raises(ValueError, match="row 2 "):
            simple_bp(3, [ok, Row.make({entry: 1.0}, "<=", 0.0)])
        bp = simple_bp(3, [ok, Row.make({2: 1.0}, "<=", 0.0)])
        assert solve(bp).incumbent == (1, 1, 0)
        with pytest.raises(ValueError, match="row 3 "):
            replace(bp, rows=bp.rows + (Row.make({entry: 1.0}, "<=", 0.0),))

    def test_program_dies_with_its_last_reference(self):
        # The record refers to derived objects only, never back to its
        # program, so refcounting frees both without the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            for make in (lambda: gen_snark(3)[1],
                         lambda: planted_symmetric_bp(random.Random(7), 8)):
                bp = make()
                for mode, rl in CELLS:
                    solve(bp, Settings(mode=mode, relabel=rl))
                assert set(bp._setup.labelings) == set(RELABELS)
                ref = weakref.ref(bp)
                del bp
                assert ref() is None
        finally:
            gc.enable()
