import random

import pytest

from cycfix.core import (FixState, InvalidRestrictionError, Permutation,
                         group_elements, is_monotone_ordered)
from cycfix.cyclic import (CyclicSubgroup, UnsupportedGroupError,
                           _is_lex_leader, complete_fix_monotone_group,
                           fixes_nothing, group_feasible_monotone,
                           lex_leader_completion, propagate_ordered_monotone,
                           relabel, strict_witness)
from cycfix.imptree import PropagationResult, propagate_set
from cycfix.oracle import (complete_fixings_oracle, enumerate_feasible,
                           is_lex_leader, per_perm_fixpoint_oracle)

from conftest import (rand_fixstate, rand_monotone_group,
                      rand_ordered_monotone_group, rand_perm)


class TestCyclicSubgroup:
    def test_full_group(self):
        gen = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
        grp = CyclicSubgroup.generated_by(gen)
        assert len(grp.elements()) == 5
        assert not grp.is_trivial()

    def test_exponent_subgroup(self):
        gen = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
        grp = CyclicSubgroup(gen, [2, 4])
        assert [len(e.support()) for e in grp.elements()] == [6, 6]

    def test_non_subgroup_rejected(self):
        gen = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
        with pytest.raises(ValueError):
            CyclicSubgroup(gen, [2])  # 2+2=4 missing

    def test_pointwise_stabilizer(self):
        gen = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        grp = CyclicSubgroup.generated_by(gen)
        assert grp.stab_pointwise([0]).is_trivial()
        assert not grp.stab_pointwise([]).is_trivial()

    def test_setwise_pair_stabilizer(self):
        gen = Permutation.from_cycles(4, [(1, 2, 3, 4)])
        grp = CyclicSubgroup.generated_by(gen)
        stab = grp.stab_setwise_pair({0, 2}, {1, 3})
        assert stab.exponents == (2,)

    def test_restrict_to_block(self):
        gen = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
        grp = CyclicSubgroup.generated_by(gen)
        sub = grp.restrict_to_block({0, 1, 2})
        assert sub.generator.cycles() == [(1, 2, 3)]

    def test_restrict_to_non_invariant_block_rejected(self):
        gen = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
        grp = CyclicSubgroup.generated_by(gen)
        with pytest.raises(InvalidRestrictionError):
            grp.restrict_to_block({0, 1})


def _check_against_powers(sub, gen, exponents):
    """sub is the subgroup of gen with these exponents, element by element."""
    assert sub.generator == gen
    assert sub.exponents == tuple(exponents)
    assert [g.image for g in sub.elements()] == \
        [(gen ** e).image for e in exponents]


class TestSubgroupsMatchPowerFilters:
    """Stabilizers and restrictions against filters over generator ** e."""

    def test_randomized(self):
        rng = random.Random(17)
        for _ in range(600):
            n = rng.randint(4, 12)
            grp = rand_ordered_monotone_group(rng, n)
            gen = grp.generator
            powers = {e: gen ** e for e in grp.exponents}

            idx = rng.sample(range(n), rng.randint(0, 3))
            point = grp.stab_pointwise(idx)
            _check_against_powers(point, gen, [
                e for e, g in powers.items()
                if all(g.image[i] == i for i in idx)])

            # a random 0/1 pattern over some blocks, all of them fixed, and
            # two random index sets
            blocks = is_monotone_ordered(gen).blocks
            fixed = [i for b in blocks if rng.random() < 0.6 for i in b]
            ones = {i for i in fixed if rng.random() < 0.5}
            pairs = [(set(fixed) - ones, ones),
                     (set(rng.sample(range(n), rng.randint(0, n))),
                      set(rng.sample(range(n), rng.randint(0, n))))]
            for base in (grp, point):
                for a, b in pairs:
                    _check_against_powers(
                        base.stab_setwise_pair(a, b), gen, [
                            e for e in base.exponents
                            if all(powers[e].image[i] in a for i in a)
                            and all(powers[e].image[i] in b for i in b)])

            block = rng.choice(blocks)
            zeta = gen.restrict(block)
            restr = grp.restrict_to_block(block)
            exps = sorted({e % zeta.order() for e in powers} - {0})
            _check_against_powers(restr, zeta, exps)
            assert {g.image for g in restr.elements()} == {
                g.restrict(block).image for g in powers.values()
                if not g.restrict(block).is_identity()}


class TestMonotoneComplete:
    def test_rejects_non_monotone(self):
        gen = Permutation.from_cycles(5, [(1, 3, 2)])
        with pytest.raises(UnsupportedGroupError):
            complete_fix_monotone_group(
                CyclicSubgroup.generated_by(gen), FixState(5))

    def test_worked_cyclic_example(self):
        gen = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        grp = CyclicSubgroup.generated_by(gen)
        fs = FixState(5, {1, 4}, set())
        # per-permutation propagation alone finds nothing new
        per_perm = propagate_set(grp.elements(), fs.copy())
        assert per_perm.fixed0 == frozenset({1, 4})
        assert per_perm.fixed1 == frozenset()
        res = complete_fix_monotone_group(grp, fs)
        assert res.feasible
        assert res.fixed0 == frozenset({1, 3, 4})
        assert res.fixed1 == frozenset()

    def test_matches_oracle_randomized(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(2, 9)
            grp = rand_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            res = complete_fix_monotone_group(grp, fs.copy())
            ora = complete_fixings_oracle(grp.elements(), fs.copy())
            assert res == ora

    def test_feasibility_biconditional(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(2, 9)
            grp = rand_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            per_perm = propagate_set(grp.elements(), fs.copy())
            enum_nonempty = bool(
                enumerate_feasible(grp.elements(), fs.copy()).vectors)
            if not per_perm.feasible:
                assert not enum_nonempty
                continue
            complete = per_perm.as_fixstate(n)
            assert group_feasible_monotone(grp, complete) == enum_nonempty


class TestWitnesses:
    def run_cases(self, check):
        rng = random.Random(77)
        hits = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            grp = rand_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            per_perm = propagate_set(grp.elements(), fs.copy())
            if not per_perm.feasible:
                continue
            complete = per_perm.as_fixstate(n)
            if not enumerate_feasible(grp.elements(), complete.copy()).vectors:
                continue
            support = set(grp.generator.support())
            if not (support - complete.fixed0 - complete.fixed1):
                continue  # witnesses require an unfixed support entry
            check(grp, complete)
            hits += 1
        assert hits > 100

    def test_strict_witness(self):
        def check(grp, fs):
            x = strict_witness(grp, fs.fixed0, fs.fixed1)
            assert all(x[i] == 0 for i in fs.fixed0)
            assert all(x[i] == 1 for i in fs.fixed1)
            for g in grp.elements():
                assert tuple(x) > g.apply(x)
        self.run_cases(check)

    def test_strict_witness_needs_an_unfixed_support_entry(self):
        grp = CyclicSubgroup.generated_by(
            Permutation.from_cycles(4, [(1, 2, 3)]))
        with pytest.raises(ValueError, match="unfixed support entry"):
            strict_witness(grp, {1}, {0, 2})


def _leader_test(rng, n, lists):
    """A random permutation list under ``_is_lex_leader`` (when ``lists``),
    else a random monotone cyclic group under its own ``leads``; with the
    group's elements."""
    if lists:
        elems = [rand_perm(rng, n) for _ in range(rng.randint(1, 3))]
        return elems, lambda x: _is_lex_leader(x, elems)
    grp = rand_monotone_group(rng, n)
    return grp.elements(), grp.leads


class TestLeads:
    """CyclicSubgroup.leads against the oracle over the whole subgroup."""

    def test_every_step_randomized(self):
        # Ordered monotone generators with 1-4 blocks and fixed points
        # between and inside the blocks' spans, n <= 14, every divisor step
        # of the order, random vectors.
        rng = random.Random(20240)
        tally = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(2, 14)
            gen = rand_ordered_monotone_group(rng, n).generator
            order = gen.order()
            for step in range(1, order + 1):
                if order % step:
                    continue
                grp = CyclicSubgroup(gen, range(step, order, step))
                x = [rng.randint(0, 1) for _ in range(n)]
                want = is_lex_leader(x, grp.elements())
                assert grp.leads(x) == want, (gen, step, x)
                tally[want] += 1
        assert min(tally.values()) >= 1000, tally

    def test_later_start_blocks(self):
        # From block c > 0 with delta the stabilizer of x's pattern on the
        # blocks before c, leads(x, c) is the lex-leader test under delta.
        rng = random.Random(20241)
        tally = {True: 0, False: 0}
        while sum(tally.values()) < 3000:
            n = rng.randint(4, 14)
            grp = rand_ordered_monotone_group(rng, n)
            blocks = is_monotone_ordered(grp.generator).blocks
            if len(blocks) < 2:
                continue
            x = [rng.randint(0, 1) for _ in range(n)]
            c = rng.randint(1, len(blocks) - 1)
            before = [i for b in blocks[:c] for i in b]
            delta = grp.stab_setwise_pair([i for i in before if x[i]],
                                          [i for i in before if not x[i]])
            if delta.is_trivial():
                continue
            want = is_lex_leader(x, delta.elements())
            assert delta.leads(x, c) == want, (grp, c, x)
            tally[want] += 1
        assert min(tally.values()) >= 600, tally

    def test_needs_an_ordered_generator(self):
        gen = Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)])
        with pytest.raises(UnsupportedGroupError):
            CyclicSubgroup.generated_by(gen).leads([0] * 6)


class TestLexLeaderCompletion:
    def test_randomized_against_oracle(self):
        # Random permutation lists and monotone cyclic groups, n <= 12: the
        # result is the first of the two completions (free entries all 0,
        # then all 1) that the oracle accepts, and None when it accepts
        # neither.
        rng = random.Random(20228)
        tally = {0: 0, 1: 0, None: 0}
        for _ in range(3000):
            n = rng.randint(2, 12)
            elems, leads = _leader_test(rng, n, rng.random() < 0.5)
            fs = rand_fixstate(rng, n)
            completions = [[1 if i in fs.fixed1 else 0 if i in fs.fixed0
                            else fill for i in range(n)] for fill in (0, 1)]
            want = next((fill for fill in (0, 1)
                         if is_lex_leader(completions[fill], elems)), None)
            got = lex_leader_completion(leads, fs)
            assert got == (None if want is None else completions[want]), \
                (elems, fs)
            tally[want] += 1
        assert min(tally.values()) >= 300, tally


class TestFixesNothing:
    """fixes_nothing holds exactly when both fills pass, and then no sound
    propagation changes the fixings."""

    def test_perm_lists_randomized(self):
        # Random permutation lists and the powers of random permutations
        # and of monotone cycles, n <= 10, under random fixings.
        rng = random.Random(20230)
        held = 0
        for k in range(3000):
            n = rng.randint(2, 10)
            if k % 3 == 1:
                elems = group_elements(rand_perm(rng, n))
                leads = lambda x: _is_lex_leader(x, elems)  # noqa: E731
            else:
                elems, leads = _leader_test(rng, n, k % 3 == 0)
            fs = rand_fixstate(rng, n)
            fills = [[1 if i in fs.fixed1 else 0 if i in fs.fixed0
                      else fill for i in range(n)] for fill in (0, 1)]
            got = fixes_nothing(leads, fs)
            assert got == all(is_lex_leader(x, elems) for x in fills), \
                (elems, fs)
            if got:
                held += 1
                same = PropagationResult.of(fs.fixed0, fs.fixed1)
                assert per_perm_fixpoint_oracle(elems, fs.copy()) == same
                assert propagate_set(elems, fs.copy()) == same
        assert 600 <= held <= 2400, held

    def test_leads_certifies_the_group(self):
        # Ordered monotone generators, n <= 10: when both fills pass the
        # (sub)group's leads, the complete fixings of the whole group are
        # the input fixings.
        rng = random.Random(20231)
        held = tried = 0
        while tried < 2000:
            n = rng.randint(4, 10)
            grp = rand_ordered_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            tried += 1
            fs = rand_fixstate(rng, n)
            if fixes_nothing(grp.leads, fs):
                held += 1
                assert complete_fixings_oracle(grp.elements(), fs.copy()) \
                    == PropagationResult.of(fs.fixed0, fs.fixed1), (grp, fs)
        assert 400 <= held <= 1600, held

    def test_inconsistent_fixings_never_hold(self):
        grp = CyclicSubgroup.generated_by(
            Permutation.from_cycles(3, [(1, 2)]))
        assert fixes_nothing(grp.leads, FixState(3))
        assert not fixes_nothing(grp.leads, FixState(3, {0}, {0}))


class TestPublicEntriesKeepTheirArgument:
    """The public entries copy the FixState they are given; only the
    private propagators extend one in place."""

    def test_randomized(self):
        # Monotone cyclic groups and ordered monotone generators, n <= 11,
        # under random fixings, one case in five with an entry fixed both
        # ways.
        rng = random.Random(20233)
        grew = 0
        for k in range(600):
            n = rng.randint(4, 11)
            single = k % 2 == 0
            grp = (rand_monotone_group if single
                   else rand_ordered_monotone_group)(rng, n)
            fs = rand_fixstate(rng, n)
            if k % 5 == 0:
                i = rng.randrange(n)
                fs.fixed0.add(i)
                fs.fixed1.add(i)
            before = fs.copy()
            results = [propagate_ordered_monotone(grp, fs),
                       propagate_ordered_monotone(grp, fs,
                                                  compute_fixings=False),
                       propagate_set(grp.elements(), fs)]
            if single:
                results.append(complete_fix_monotone_group(grp, fs))
                group_feasible_monotone(grp, fs)
            assert fs == before, (grp, before)
            grew += any(r.feasible and len(r.fixed0) + len(r.fixed1)
                        > len(fs.fixed0) + len(fs.fixed1) for r in results)
        # Most cases fix new entries, which a mutating entry would leave.
        assert grew >= 150, grew


class TestOrderedMonotone:
    def test_requires_ordered_monotone(self):
        # interleaved supports cannot be split into ordered blocks
        gen = Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)])
        with pytest.raises(UnsupportedGroupError):
            propagate_ordered_monotone(
                CyclicSubgroup.generated_by(gen), FixState(6))
        # a cycle with two descents is not monotone
        gen = Permutation.from_cycles(6, [(1, 4, 2, 5)])
        with pytest.raises(UnsupportedGroupError):
            propagate_ordered_monotone(
                CyclicSubgroup.generated_by(gen), FixState(6))

    def test_single_block_equals_monotone_algorithm(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 9)
            grp = rand_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            assert propagate_ordered_monotone(grp, fs.copy()) == \
                complete_fix_monotone_group(grp, fs.copy())

    def test_matches_oracle_randomized(self):
        rng = random.Random(14)
        for _ in range(200):
            n = rng.randint(4, 11)
            grp = rand_ordered_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            res = propagate_ordered_monotone(grp, fs.copy())
            ora = complete_fixings_oracle(grp.elements(), fs.copy())
            assert res == ora

    def test_nopeek_is_sound_but_weaker(self):
        rng = random.Random(15)
        for _ in range(100):
            n = rng.randint(4, 11)
            grp = rand_ordered_monotone_group(rng, n)
            if grp.is_trivial():
                continue
            fs = rand_fixstate(rng, n)
            res = propagate_ordered_monotone(
                grp, fs.copy(), compute_fixings=False)
            full = propagate_ordered_monotone(grp, fs.copy())
            assert res.feasible == full.feasible
            if res.feasible:
                assert res.fixed0 <= full.fixed0
                assert res.fixed1 <= full.fixed1

    def test_peeks_list_block_restrictions_only(self, monkeypatch):
        # Cycle lengths 2, 3, 5, ..., 23 on n = 100 give the group an order
        # of about 2.2e8; listing it would not finish.  The peeks may list
        # only the blocks' restrictions, fewer than n permutations in all.
        lengths = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        grp = CyclicSubgroup.generated_by(_blocks_of(lengths))
        built = []
        power = Permutation.__pow__

        def counted_power(perm, e):
            built.append(e)
            assert len(built) < 100, "peeks list the whole group"
            return power(perm, e)

        monkeypatch.setattr(Permutation, "__pow__", counted_power)
        for fs in (FixState(100), FixState(100, [0, 2], [5, 40])):
            full = propagate_ordered_monotone(grp, fs.copy())
            res = propagate_ordered_monotone(grp, fs.copy(),
                                             compute_fixings=False)
            assert full.feasible == res.feasible
            assert full.fixed0 >= res.fixed0 and full.fixed1 >= res.fixed1
        assert built  # the count sees the powers the peeks build

    @pytest.mark.parametrize("lengths", [(2, 3, 5), (3, 2, 5), (5, 2, 3)])
    def test_coprime_blocks_match_oracle(self, lengths):
        grp = CyclicSubgroup.generated_by(_blocks_of(lengths))
        rng = random.Random(sum(k * c for k, c in enumerate(lengths)))
        for _ in range(60):
            fs = rand_fixstate(rng, 10)
            res = propagate_ordered_monotone(grp, fs.copy())
            assert res == complete_fixings_oracle(grp.elements(), fs.copy())
            nopeek = propagate_ordered_monotone(grp, fs.copy(),
                                                compute_fixings=False)
            assert nopeek.feasible == res.feasible
            if res.feasible:
                assert nopeek.fixed0 <= res.fixed0
                assert nopeek.fixed1 <= res.fixed1


def _blocks_of(lengths):
    """Monotone cycles of the given lengths on consecutive positions."""
    cycles, pos = [], 1
    for k in lengths:
        cycles.append(tuple(range(pos, pos + k)))
        pos += k
    return Permutation.from_cycles(pos - 1, cycles)


class TestRelabel:
    def test_worked_example(self):
        g1 = Permutation.from_cycles(9, [(1, 8, 7, 3)])
        g2 = Permutation.from_cycles(9, [(3, 4, 5, 8)])
        g3 = Permutation.from_cycles(9, [(2, 5, 6, 9, 4)])
        plan = relabel([g1, g2, g3], strategy="respect")
        assert [plan.labeling(i) + 1 for i in range(9)] == \
            [1, 5, 4, 9, 6, 7, 3, 2, 8]
        assert plan.apply_to(g1).cycles() == [(1, 2, 3, 4)]
        assert plan.apply_to(g3).cycles() == [(5, 6, 7, 8, 9)]

    def test_single_monotone_generator_compacted(self):
        # support keeps its relative order; labels compact to a prefix
        g = Permutation.from_cycles(6, [(2, 3, 4)])
        plan = relabel([g])
        assert plan.apply_to(g).cycles() == [(1, 2, 3)]
        assert plan.labeling(1) < plan.labeling(2) < plan.labeling(3)

    def test_disjoint_generators_both_normalized(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(6, 12)
            idx = list(range(1, n + 1))
            rng.shuffle(idx)
            k1 = rng.randint(2, n // 2)
            k2 = rng.randint(2, n - k1)
            g1 = Permutation.from_cycles(n, [tuple(idx[:k1])])
            g2 = Permutation.from_cycles(n, [tuple(idx[k1:k1 + k2])])
            for strategy in ("max", "min", "respect"):
                plan = relabel([g1, g2], strategy=strategy)
                assert is_monotone_ordered(plan.apply_to(g1)) is not None
                assert is_monotone_ordered(plan.apply_to(g2)) is not None

    def test_vector_round_trip(self):
        g = Permutation.from_cycles(5, [(1, 4, 2)])
        plan = relabel([g])
        x = (1, 0, 1, 1, 0)
        assert plan.unmap_vector(plan.labeling.apply(x)) == x

    def test_unknown_strategy(self):
        g = Permutation.from_cycles(3, [(1, 2)])
        with pytest.raises(ValueError):
            relabel([g], strategy="bogus")
        with pytest.raises(ValueError, match="generator"):
            relabel([])
