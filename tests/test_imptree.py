import gc
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cycfix import imptree
from cycfix.core import FixState, Permutation
from cycfix.imptree import (FixScheduler, InternalLogicError,
                            completeness_check, index_increase_event,
                            init_state, propagate_set,
                            propagate_set_with_states, tree_shape,
                            variable_fixing_event)
from cycfix.oracle import per_perm_fixpoint_oracle

from conftest import rand_fixstate, rand_ordered_monotone_group, rand_perm

GAMMA1 = Permutation.from_cycles(8, [(1, 6, 8, 4, 7, 2, 5)])
GAMMA2 = Permutation.from_cycles(8, [(1, 3, 6, 2, 4, 5)])


def example_fixings() -> FixState:
    # 1-based: fixed0 = {4, 6}, fixed1 = {5}
    return FixState(8, {3, 5}, {4})


def drain(state, fs, sched):
    """Apply every scheduled fixing back into the single tracked state."""
    assert not sched.contradiction
    while sched.stack:
        entry, value = sched.pop()
        target = fs.fixed0 if value == 0 else fs.fixed1
        if entry in target:
            continue
        target.add(entry)
        variable_fixing_event(state, fs, (entry, value), sched)
        assert not sched.contradiction


def advance_to(state, fs, sched, horizon):
    while state.lex_index < horizon:
        index_increase_event(state, fs, sched)
        drain(state, fs, sched)


class TestSingleStepEvents:
    """Index-increase outcomes for each combination of known entry values.

    With gamma = (1,2) on two entries, the first event looks up the values
    alpha of entry 1 and beta of entry 2.
    """

    def setup_method(self):
        self.gamma = Permutation.from_cycles(2, [(1, 2)])

    def step(self, fixed0=(), fixed1=()):
        fs = FixState(2, set(fixed0), set(fixed1))
        state = init_state(self.gamma, fs)
        sched = FixScheduler()
        index_increase_event(state, fs, sched)
        return state, sched

    def test_both_unknown_builds_diamond(self):
        state, _ = self.step()
        assert tree_shape(state.tree) == [
            "root",
            ["cond(1,0)", ["necc(2,0)", ["loose"]]],
            ["cond(2,1)", ["necc(1,1)", ["loose"]]],
        ]

    def test_alpha_zero(self):
        state, sched = self.step(fixed0={0})
        assert tree_shape(state.tree) == ["root", ["necc(2,0)", ["loose"]]]
        assert sched.pending == {1: 0}  # root-adjacent fixing scheduled

    def test_alpha_one(self):
        state, sched = self.step(fixed1={0})
        assert tree_shape(state.tree) == ["root", ["cond(2,1)", ["loose"]]]
        assert not sched.stack

    def test_beta_zero(self):
        state, _ = self.step(fixed0={1})
        assert tree_shape(state.tree) == ["root", ["cond(1,0)", ["loose"]]]

    def test_beta_one(self):
        state, sched = self.step(fixed1={1})
        assert tree_shape(state.tree) == ["root", ["necc(1,1)", ["loose"]]]
        assert sched.pending == {0: 1}

    @pytest.mark.parametrize("fixed0, fixed1", [({0}, ()), ((), {0}),
                                                ({1}, ()), ((), {1})],
                             ids=["alpha0", "alpha1", "beta0", "beta1"])
    def test_loose_end_moves_below_the_new_vertex(self, fixed0, fixed1):
        fs = FixState(2, set(fixed0), set(fixed1))
        state = init_state(self.gamma, fs)
        (loose,) = state.tree.loose_ends
        created = state.tree.created
        index_increase_event(state, fs, FixScheduler())
        tree = state.tree
        assert tree.loose_ends == {loose}
        assert tree.alive[loose] and tree.parent[loose] == tree.children(0)[0]
        assert state.tree.created == created + 1

    def test_equal_values_keep_loose_end(self):
        for kwargs in (dict(fixed0={0, 1}), dict(fixed1={0, 1})):
            state, sched = self.step(**kwargs)
            assert tree_shape(state.tree) == ["root", ["loose"]]
            assert not sched.stack

    def test_one_zero_removes_loose_end(self):
        state, _ = self.step(fixed1={0}, fixed0={1})
        assert tree_shape(state.tree) == ["root"]
        assert not state.tree.infeasible
        # no loose ends left: nothing more can ever be derived
        assert completeness_check(state, FixState(2, {1}, {0}))

    def test_zero_one_is_infeasible_at_root(self):
        state, _ = self.step(fixed0={0}, fixed1={1})
        assert state.tree.infeasible

    def test_fixed_point_is_a_no_op(self):
        gamma = Permutation.from_cycles(3, [(2, 3)])
        fs = FixState(3)
        state = init_state(gamma, fs)
        sched = FixScheduler()
        created_before = state.tree.created
        index_increase_event(state, fs, sched)
        assert state.lex_index == 2
        assert tree_shape(state.tree) == ["root", ["loose"]]
        assert state.tree.created == created_before


class TestExampleTrace:
    """The two-permutation worked example, driven event by event."""

    def test_tree_at_horizon_six(self):
        fs = example_fixings()
        state = init_state(GAMMA1, fs)
        sched = FixScheduler()
        advance_to(state, fs, sched, 6)
        assert fs.fixed1 == {0, 4}  # fixing (1,1) was derived on the way
        assert tree_shape(state.tree) == [
            "root",
            ["cond(2,0)", ["necc(7,0)", ["necc(8,0)"]]],
            ["cond(7,1)", ["necc(2,1)", ["necc(8,0)", ["loose"]]]],
        ]

    def test_h_value_on_lower_branch(self):
        fs = example_fixings()
        state = init_state(GAMMA1, fs)
        sched = FixScheduler()
        advance_to(state, fs, sched, 6)
        (loose,) = state.tree.loose_ends

        def h_value(e):
            return imptree._h_pair(
                state.tree, fs.fixed0, fs.fixed1, e, e, loose)[0]

        # entry 7 (1-based) is decided by the conditional (7,1) on the path
        assert h_value(6) == 1
        # entry 3 (1-based) is unfixed and absent from the path
        assert h_value(2) is None
        # globally fixed entries come from the fixing sets
        assert h_value(4) == 1
        assert h_value(3) == 0

    def test_collapse_step_to_horizon_seven(self):
        fs = example_fixings()
        state = init_state(GAMMA1, fs)
        sched = FixScheduler()
        advance_to(state, fs, sched, 6)
        index_increase_event(state, fs, sched)
        # the lower conditional branch collapsed into a necessary (7,0)
        assert tree_shape(state.tree) == [
            "root", ["necc(7,0)", ["cond(2,0)", ["necc(8,0)"]]]]
        assert sched.pending == {6: 0}
        drain(state, fs, sched)
        assert fs.fixed0 == {3, 5, 6}
        assert tree_shape(state.tree) == ["root", ["cond(2,0)", ["necc(8,0)"]]]
        # no loose end survives, so the permutation is complete
        assert completeness_check(state, fs)

    def test_fresh_state_is_incomplete(self):
        fs = FixState(4)
        state = init_state(Permutation.from_cycles(4, [(1, 2, 3, 4)]), fs)
        assert not completeness_check(state, fs)

    def test_exhausted_horizon_is_complete(self):
        gamma = Permutation.from_cycles(3, [(1, 2, 3)])
        fs = FixState(3, set(), {0, 1, 2})
        state = init_state(gamma, fs)
        sched = FixScheduler()
        advance_to(state, fs, sched, 4)
        assert state.lex_index == 4
        assert completeness_check(state, fs)

    def test_undrained_root_fixing_is_rejected(self):
        gamma = Permutation.from_cycles(2, [(1, 2)])
        fs = FixState(2, {0}, set())
        state = init_state(gamma, fs)
        sched = FixScheduler()
        index_increase_event(state, fs, sched)  # leaves necc(2,0) at root
        with pytest.raises(InternalLogicError):
            completeness_check(state, fs)

    @pytest.mark.parametrize("fixed1", [{0}, set()], ids=["x1=1", "free"])
    def test_walking_past_completeness_is_a_logic_error(self, fixed1):
        # After two steps of (1 2)(3 4) every loose end is guarded by a
        # conditional under the root, and both entries of the third step
        # are blank on its path: a diamond would hang below the root.
        gamma = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        fs = FixState(4, set(), fixed1)
        state = init_state(gamma, fs)
        sched = FixScheduler()
        advance_to(state, fs, sched, 3)
        assert completeness_check(state, fs)
        with pytest.raises(InternalLogicError, match="below the root"):
            index_increase_event(state, fs, sched)


class TestPropagateSet:
    def test_worked_example(self):
        res = propagate_set([GAMMA1, GAMMA2], example_fixings())
        assert res.feasible
        assert res.fixed0 == frozenset({3, 5, 6})
        assert res.fixed1 == frozenset({0, 4})

    def test_example_matches_oracle(self):
        res = propagate_set([GAMMA1, GAMMA2], example_fixings())
        ora = per_perm_fixpoint_oracle([GAMMA1, GAMMA2], example_fixings())
        assert (res.fixed0, res.fixed1) == (ora.fixed0, ora.fixed1)

    def test_unmoved_by_cyclic_example(self):
        gamma = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        perms = [gamma ** k for k in range(1, 5)]
        fs = FixState(5, {1, 4}, set())
        res = propagate_set(perms, fs)
        assert res.feasible
        assert res.fixed0 == frozenset({1, 4})
        assert res.fixed1 == frozenset()

    def test_transposition_infeasible(self):
        res = propagate_set(
            [Permutation.from_cycles(2, [(1, 2)])], FixState(2, {0}, {1}))
        assert not res.feasible

    def test_inconsistent_input_infeasible(self):
        res = propagate_set(
            [Permutation.from_cycles(3, [(1, 2)])], FixState(3, {0}, {0}))
        assert not res.feasible

    def test_fixing_scheduled_twice_is_a_logic_error(self, monkeypatch):
        # The derived fixing x2 = 1 leaves necc(1,1) at two roots in one
        # drain.  With the pending check gone both trees schedule x1 = 1,
        # and the second pop must neither be skipped nor read as a conflict.
        def push(sched, entry, value):
            sched.pending[entry] = value
            sched.stack.append((entry, value))

        monkeypatch.setattr(FixScheduler, "push", push)
        perms = [Permutation(img) for img in
                 ((1, 0, 3, 2), (2, 0, 1, 3), (0, 2, 3, 1))]
        with pytest.raises(InternalLogicError, match="fixed entry 0"):
            propagate_set_with_states(perms, FixState(4, set(), {3}))

    def test_scan_fixing_a_fixed_entry_the_other_way_is_a_logic_error(
            self, monkeypatch):
        # The scan driver's one conflict check: a scan yields only new
        # fixings, so x4 = 0 against the given x4 = 1 cannot be a conflict
        # of the constraints.
        monkeypatch.setattr(imptree, "_scan", lambda inv, label, members:
                            ([3], [], len(inv) - 1))
        with pytest.raises(InternalLogicError, match="fixed entry 3"):
            propagate_set([Permutation.from_cycles(4, [(1, 2)])],
                          FixState(4, set(), {3}))

    def test_rejects_empty_and_identity(self):
        with pytest.raises(ValueError):
            propagate_set([], FixState(3))
        with pytest.raises(ValueError):
            propagate_set([Permutation.identity(3)], FixState(3))
        with pytest.raises(ValueError):
            propagate_set([Permutation.from_cycles(2, [(1, 2)])], FixState(3))

    def test_result_independent_of_order(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(3, 9)
            perms = [rand_perm(rng, n) for _ in range(rng.randint(2, 5))]
            fs = rand_fixstate(rng, n)
            base = propagate_set(perms, fs.copy())
            shuffled = perms[:]
            rng.shuffle(shuffled)
            assert propagate_set(shuffled, fs.copy()) == base

    def test_monotone_in_output(self):
        # output always contains the input fixings when feasible
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 9)
            perms = [rand_perm(rng, n) for _ in range(rng.randint(1, 4))]
            fs = rand_fixstate(rng, n)
            res = propagate_set(perms, fs.copy())
            if res.feasible:
                assert res.fixed0 >= fs.fixed0
                assert res.fixed1 >= fs.fixed1

    def test_work_bound_counter(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 10)
            perms = [rand_perm(rng, n) for _ in range(rng.randint(1, 5))]
            fs = rand_fixstate(rng, n)
            _res, states = propagate_set_with_states(perms, fs)
            for st_ in states:
                assert st_.tree.created <= 6 * n + 2


def _cycle(n):
    return Permutation([(i + 1) % n for i in range(n)])


def _scan_arrays(fs):
    """The arrays :func:`imptree._scan_fixpoint` hands every scan: the
    base labelling of ``fs``'s fixings and no class lists."""
    label = list(range(fs.n))
    for fix, c in ((fs.fixed0, imptree.ZERO), (fs.fixed1, imptree.ONE)):
        for e in fix:
            label[e] = c
    return label, [None] * fs.n


class _CountedList(list):
    """A list that counts its item reads and writes."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = self.writes = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


class TestLinearWork:
    """Machine-independent work counts: allocations, lookup and ancestor
    steps grow linearly in n, completeness checks linearly in the number of
    permutations."""

    @pytest.mark.parametrize("n", (200, 400, 800, 1600, 3200))
    def test_path_steps_linear_on_a_single_cycle(self, n):
        for fs in (FixState(n), FixState(n, {n // 2}, set()),
                   FixState(n, set(), {n // 3})):
            res, (st_,) = propagate_set_with_states([_cycle(n)], fs)
            assert res.feasible
            assert st_.tree.created <= 2 * n + 3, st_.tree.created
            assert st_.tree.path_steps <= 8 * n, st_.tree.path_steps

    @pytest.mark.parametrize("n", (64, 128, 256, 512))
    def test_completeness_checks_linear_in_perms(self, n):
        cycle = _cycle(n)
        perms = [cycle ** k for k in range(1, n)]
        res, states = propagate_set_with_states(perms, FixState(n, {1}, set()))
        assert res.feasible
        assert sum(s.checks for s in states) <= 8 * len(perms)

    @pytest.mark.parametrize("n", (64, 128, 256, 512))
    def test_scans_linear_in_perms(self, n, monkeypatch):
        scans = []
        scan = imptree._scan

        def counted_scan(inv, label, members):
            scans.append(inv)
            return scan(inv, label, members)

        monkeypatch.setattr(imptree, "_scan", counted_scan)
        cycle = _cycle(n)
        perms = [cycle ** k for k in range(1, n)]
        for fs in (FixState(n, {1}, set()), FixState(n, set(), {n // 3})):
            scans.clear()
            assert propagate_set(perms, fs).feasible
            assert len(perms) <= len(scans) <= 2 * len(perms)

    def test_scan_cost_follows_what_it_reads(self):
        """10,000 fixings beyond position 2 and a scan that stops after a
        few positions: its array reads and writes follow the positions it
        read, not the fixings."""
        n = 20000
        fs = FixState(n, set(range(n // 2 + 1, n, 2)),
                      set(range(n // 2, n, 2)))
        swaps = list(range(n))
        swaps[0], swaps[1], swaps[2], swaps[n - 1] = 1, 0, n - 1, 2
        for g in (_cycle(n), Permutation(swaps)):
            base, _ = _scan_arrays(fs)
            label, members = _CountedList(base), _CountedList([None] * n)
            last = imptree._scan(g.inv, label, members)[2]
            assert last <= 3, last
            assert label == base and members == [None] * n
            work = label.reads + label.writes + members.reads + members.writes
            assert work <= 8 * (last + 1), (g, work, last)

    def test_no_cyclic_garbage(self):
        """Vertices link by id and the scan keeps no graph, so refcounting
        frees every call's state, the scan's and the tree driver's, when it
        returns and the cyclic collector finds nothing left over."""
        n = 400
        cycle = _cycle(n)
        powers = [cycle ** k for k in range(1, 61)]
        rng = random.Random(400)
        gc.collect()
        gc.disable()
        try:
            for drive in (propagate_set, propagate_set_with_states):
                for perms in ([cycle], powers):
                    for count in range(3):
                        fs = FixState(n)
                        for i in rng.sample(range(n), count):
                            (fs.fixed0 if rng.random() < 0.5 else
                             fs.fixed1).add(i)
                        drive(perms, fs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_at_most_five_vertices_per_horizon_step(self):
        """The root and the first loose end, then at most five allocations
        per index-increase event: a junction step builds the diamond and
        one new loose end, any other step one vertex per loose end."""
        rng = random.Random(515)
        for _ in range(150):
            n = rng.randint(2, 30)
            g = rand_perm(rng, n)
            perms = [g ** e for e in range(1, min(g.order(), 12))]
            perms += [rand_perm(rng, n) for _ in range(rng.randint(1, 4))]
            fs = rand_fixstate(rng, n, rng.random() * 0.3, rng.random() * 0.3)
            _res, states = propagate_set_with_states(perms, fs)
            for st_ in states:
                assert st_.tree.created <= 5 * (st_.lex_index - 1) + 2


def _ordered_monotone(rng, n):
    """A monotone cycle on a random support, or a product of monotone
    cycles on consecutive blocks (each block's entries below the next's)."""
    image = list(range(n))
    cuts = sorted(rng.sample(range(2, n - 1), rng.randint(0, 3)))
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if hi - lo < 2:
            continue
        support = sorted(rng.sample(range(lo, hi), rng.randint(2, hi - lo)))
        for a, b in zip(support, support[1:]):
            image[a] = b
        image[support[-1]] = support[0]
    return Permutation(image)


def test_structural_invariants_on_monotone_groups(monkeypatch):
    """Powers of monotone cycles and of ordered products of them, under
    invariant checks after every event.  Half the cases add a transposition
    that derives a fixing on an end of the support, where the first diamond
    hangs; the cases reach a diamond forming under the root, a branch head
    spliced out of it, and a collapse merging its sibling branch."""
    tally = {"diamond": 0, "merge": 0, "head": 0}
    new_vertex = imptree.ImplicationTree.new_vertex
    splice_out = imptree.ImplicationTree.splice_out
    collapse = imptree._collapse_to_necessary

    def counted_new_vertex(tree, kind, entry, value, parent, loose=-1):
        v = new_vertex(tree, kind, entry, value, parent, loose)
        tally["diamond"] += kind == imptree.CONDITIONAL and \
            len(tree.children(parent)) == 2
        return v

    def counted_splice_out(tree, v):
        tally["head"] += tree.sibling_of(v) >= 0
        return splice_out(tree, v)

    def counted_collapse(tree, u):
        tally["merge"] += tree.sibling_of(u) >= 0
        return collapse(tree, u)

    tree_cls = imptree.ImplicationTree
    monkeypatch.setattr(tree_cls, "new_vertex", counted_new_vertex)
    monkeypatch.setattr(tree_cls, "splice_out", counted_splice_out)
    monkeypatch.setattr(imptree, "_collapse_to_necessary", counted_collapse)
    rng = random.Random(6116)
    for _ in range(300):
        n = rng.randint(6, 40)
        g = _ordered_monotone(rng, n)
        if g.is_identity():
            continue
        exponents = list(range(1, g.order()))
        if len(exponents) > 24 or rng.random() < 0.5:
            exponents = rng.sample(exponents, min(len(exponents),
                                                  rng.randint(1, 8)))
        perms = [g ** e for e in exponents]
        fs = FixState(n)
        for i in rng.sample(range(n), rng.randint(0, 4)):
            (fs.fixed0 if rng.random() < 0.5 else fs.fixed1).add(i)
        first, last = min(g.support()), max(g.support())
        if rng.random() < 0.5 and first > 0:
            t = rng.randrange(first)     # (t, first) derives x_first = 0
            fs.fixed1.discard(t)
            fs.fixed0.add(t)
            perms.append(Permutation.from_cycles(n, [(t + 1, first + 1)]))
        elif rng.random() < 0.5 and last < n - 1:
            t = rng.randrange(last + 1, n)   # (last, t) derives x_last = 1
            fs.fixed0.discard(t)
            fs.fixed1.add(t)
            perms.append(Permutation.from_cycles(n, [(last + 1, t + 1)]))
        res = propagate_set(perms, fs.copy(), check_invariants=True)
        if n <= 12:
            assert res == per_perm_fixpoint_oracle(perms, fs.copy())
        else:
            rng.shuffle(perms)
            assert propagate_set(perms, fs.copy()) == res
    assert min(tally.values()) >= 20, tally


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_random_agrees_with_oracle_under_invariant_checks(data):
    n = data.draw(st.integers(2, 9))
    m = data.draw(st.integers(1, 4))
    perms = []
    while len(perms) < m:
        image = data.draw(st.permutations(list(range(n))))
        p = Permutation(list(image))
        if not p.is_identity():
            perms.append(p)
    bits = data.draw(st.lists(st.sampled_from([None, 0, 1]),
                              min_size=n, max_size=n))
    fs = FixState(n, {i for i, b in enumerate(bits) if b == 0},
                  {i for i, b in enumerate(bits) if b == 1})
    res = propagate_set(perms, fs.copy(), check_invariants=True)
    ora = per_perm_fixpoint_oracle(perms, fs.copy())
    assert res == ora


def _tree_result(perms, fs):
    return propagate_set_with_states(perms, fs.copy())[0]


class TestScanMatchesTree:
    """The scan that :func:`propagate_set` runs against the implication-tree
    driver, a different algorithm, and on small cases against enumeration.
    A scan that missed a re-queue, or read one position more or less than
    it reports, would drift from both."""

    def test_small_cases_match_tree_and_oracle(self):
        rng = random.Random(2203)
        infeasible = 0
        for case in range(3000):
            n = rng.randint(2, 10)
            if case % 2:
                perms = list(rand_ordered_monotone_group(rng, n).elements())
                perms += [rand_perm(rng, n) for _ in range(rng.randint(0, 1))]
            else:
                perms = [rand_perm(rng, n) for _ in range(rng.randint(1, 6))]
            p0, p1 = rng.random() * 0.4, rng.random() * 0.4
            fs = rand_fixstate(rng, n, p0, p1)
            if rng.random() < 0.05:
                fs.fixed1.add(rng.choice(sorted(fs.fixed0 or {0})))
            res = propagate_set(perms, fs.copy())
            assert res == _tree_result(perms, fs), (perms, fs)
            assert res == per_perm_fixpoint_oracle(perms, fs.copy())
            infeasible += not res.feasible
        assert 300 <= infeasible <= 2700, infeasible

    def test_scan_reads_nothing_past_last(self):
        """The driver's re-queue test trusts ``last``: fixing an entry that
        is neither a position p <= last nor sigma(p) of one must leave the
        scan's answer as it was."""
        rng = random.Random(1600)
        checked = 0
        for _ in range(1000):
            n = rng.randint(2, 10)
            g = rand_perm(rng, n)
            fs = rand_fixstate(rng, n, rng.random() * 0.4, rng.random() * 0.4)
            label, members = _scan_arrays(fs)
            out = imptree._scan(g.inv, label, members)
            if out is None:
                continue
            new0, new1, last = out
            for e in range(n):
                if e <= last or g.image[e] <= last or fs.is_fixed(e):
                    continue
                for c in (imptree.ZERO, imptree.ONE):
                    label[e] = c
                    again = imptree._scan(g.inv, label, members)
                    label[e] = e
                    assert again == (new0, new1, last), (g, fs, e, c)
                    checked += 1
        assert checked >= 1000, checked

    def test_every_scan_leaves_the_arrays_as_it_found_them(self, monkeypatch):
        """The fixpoint builds ``label`` and ``members`` once and trusts each
        scan to put back every slot it wrote, on every way out: before and
        after every scan they must be the base labelling of the current
        fixings and no class lists."""
        scan, sets, tally = imptree._scan, [], {"scans": 0, "infeasible": 0}

        def checked_scan(inv, label, members):
            fs = FixState(len(inv), *sets)
            assert (label, members) == _scan_arrays(fs)
            out = scan(inv, label, members)
            assert (label, members) == _scan_arrays(fs), (inv, fs)
            tally["scans"] += 1
            tally["infeasible"] += out is None
            return out

        monkeypatch.setattr(imptree, "_scan", checked_scan)
        rng = random.Random(3011)
        powers = [_cycle(64) ** k for k in range(1, 64)]
        for case in range(1100):
            if case % 11:
                n = rng.randint(2, 12)
                perms = [rand_perm(rng, n) for _ in range(rng.randint(1, 5))]
            else:
                n, perms = 64, powers
            fs = rand_fixstate(rng, n, rng.random() * 0.4, rng.random() * 0.4)
            sets[:] = fs.fixed0, fs.fixed1
            imptree._scan_fixpoint(perms, fs.fixed0, fs.fixed1)
        assert tally["scans"] >= 5000, tally
        assert 100 <= tally["infeasible"] <= tally["scans"] // 2, tally

    @pytest.mark.parametrize("n", (400, 700, 1000, 1300, 1600))
    def test_long_cycles_match_tree(self, n):
        rng = random.Random(n)
        cycle = [_cycle(n)]
        for count in (0, 1, 1, 2, 2, 2):
            fs = FixState(n)
            for i in rng.sample(range(n), count):
                (fs.fixed0 if rng.random() < 0.5 else fs.fixed1).add(i)
            assert propagate_set(cycle, fs.copy()) == _tree_result(cycle, fs)

    @pytest.mark.parametrize("n", (128, 512))
    def test_all_powers_match_tree(self, n):
        rng = random.Random(n)
        cycle = _cycle(n)
        perms = [cycle ** k for k in range(1, n)]
        for i in [0, 1, n // 2, n - 1] + rng.sample(range(n), 4):
            for fs in (FixState(n, {i}, set()), FixState(n, set(), {i})):
                assert propagate_set(perms, fs.copy()) == \
                    _tree_result(perms, fs), fs


def test_reported_kernel_is_the_one_that_runs():
    assert imptree.KERNEL_IMPLEMENTATION == "cycfix.imptree"
    assert sys.modules[imptree.KERNEL_IMPLEMENTATION] is imptree
    assert imptree._kern is imptree     # perfbench's trace hook point
