import math
import random

import pytest
from hypothesis import given, strategies as st

from cycfix import core as core_module
from cycfix.core import (DimensionError, FixState, InvalidPermutationError,
                         InvalidRestrictionError, Permutation,
                         PropagationResult, group_elements, is_monotone,
                         is_monotone_ordered)


def perms(max_n=10):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation))


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.is_identity()
        assert p.cycles() == []
        assert p.apply((1, 0, 1, 0)) == (1, 0, 1, 0)

    def test_from_cycles_round_trip(self):
        p = Permutation.from_cycles(8, [(1, 6, 8, 4, 7, 2, 5)])
        assert p.cycles() == [(1, 6, 8, 4, 7, 2, 5)]
        assert p(0) == 5  # 1 -> 6, 0-based

    def test_from_cycles_rejects_duplicates(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycles(5, [(1, 2, 1)])
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycles(5, [(1, 2), (2, 3)])
        with pytest.raises(InvalidPermutationError):
            Permutation.from_cycles(3, [(1, 4)])

    def test_bool_entries_rejected(self):
        # A bool is an int: True read as 1 gave the transposition (1,2).
        with pytest.raises(InvalidPermutationError, match="True"):
            Permutation.from_cycles(3, [(True, 2)])
        with pytest.raises(InvalidPermutationError):
            Permutation([True, False])
        with pytest.raises(InvalidPermutationError):
            Permutation([1, 0, False])
        assert Permutation([1, 0]).image == (1, 0)

    def test_apply_moves_entries(self):
        # gamma = (1,2,3): position 1's value shows up at position 2.
        p = Permutation.from_cycles(3, [(1, 2, 3)])
        assert p.apply((1, 0, 0)) == (0, 1, 0)

    def test_apply_example_pattern(self):
        gamma1 = Permutation.from_cycles(8, [(1, 6, 8, 4, 7, 2, 5)])
        x = (1, 1, 0, 0, 1, 0, 1, 1)
        y = gamma1.apply(x)
        # y_i = x at the preimage of i
        for i in range(8):
            assert y[i] == x[gamma1.inv[i]]

    def test_apply_dimension_error(self):
        with pytest.raises(DimensionError):
            Permutation.identity(3).apply((1, 0))
        with pytest.raises(DimensionError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_compose_and_inverse(self):
        a = Permutation.from_cycles(5, [(1, 2, 3)])
        b = Permutation.from_cycles(5, [(3, 4, 5)])
        ab = a.compose(b)
        for i in range(5):
            assert ab(i) == a(b(i))
        assert a.compose(a.inverse()).is_identity()

    def test_power_and_order(self):
        p = Permutation.from_cycles(7, [(1, 2, 3), (4, 5)])
        assert p.order() == 6
        assert (p ** 6).is_identity()
        assert (p ** -1) == p.inverse()

    def test_restrict(self):
        p = Permutation.from_cycles(7, [(1, 2, 3), (4, 5)])
        r = p.restrict({0, 1, 2})
        assert r.cycles() == [(1, 2, 3)]
        assert all(r(i) == i for i in (3, 4, 5, 6))

    def test_restrict_non_invariant(self):
        p = Permutation.from_cycles(4, [(1, 2, 3)])
        with pytest.raises(InvalidRestrictionError):
            p.restrict({0, 1})

    @given(perms())
    def test_inverse_composition_is_identity(self, p):
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()

    @given(perms(), st.data())
    def test_apply_respects_composition(self, p, data):
        q = Permutation(data.draw(st.permutations(list(range(p.n)))))
        x = tuple(data.draw(st.lists(
            st.integers(0, 1), min_size=p.n, max_size=p.n)))
        assert p.apply(q.apply(x)) == p.compose(q).apply(x)

    def test_power_matches_repeated_composition(self):
        # Every exponent in [-2 order, 2 order], 0 and negatives included.
        rng = random.Random(20)
        for _ in range(40):
            image = list(range(rng.randint(1, 9)))
            rng.shuffle(image)
            p = Permutation(image)
            t = p.order()
            for sign, base in ((1, p), (-1, p.inverse())):
                expected = Permutation.identity(p.n)
                for e in range(2 * t + 1):
                    assert p ** (sign * e) == expected
                    expected = expected.compose(base)

    @given(perms())
    def test_cycles_canonical_and_round_trip(self, p):
        cyc = p.cycles()
        assert all(len(c) >= 2 and c[0] == min(c) for c in cyc)
        assert [c[0] for c in cyc] == sorted(c[0] for c in cyc)
        assert sorted(a for c in cyc for a in c) == \
            [i + 1 for i in p.support()]
        assert p.cycles0() == tuple(tuple(a - 1 for a in c) for c in cyc)
        assert Permutation.from_cycles(p.n, cyc) == p
        assert all(not (p ** d).is_identity()
                   for d in range(1, p.order()))

    @given(perms())
    def test_order_annihilates(self, p):
        assert (p ** p.order()).is_identity()
        cyc_lens = [len(c) for c in p.cycles()]
        assert p.order() == (math.lcm(*cyc_lens) if cyc_lens else 1)


class TestGroupElements:
    def test_full_cycle(self):
        g = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        elems = group_elements(g)
        assert len(elems) == 4
        assert all(not e.is_identity() for e in elems)
        assert len({e.image for e in elems}) == 4

    def test_identity_gives_nothing(self):
        assert group_elements(Permutation.identity(4)) == []

    def test_count_cap(self, monkeypatch):
        g = Permutation.from_cycles(12, [tuple(range(1, 13))])
        monkeypatch.setattr(core_module, "MAX_POWERS", 3)
        assert len(group_elements(g)) == 3

    def test_weight_cap(self, monkeypatch):
        g = Permutation.from_cycles(12, [tuple(range(1, 13))])
        # |supp| = 12, so weight 30 allows only 2 powers
        monkeypatch.setattr(core_module, "MAX_POWER_WEIGHT", 30)
        assert len(group_elements(g)) == 2


class TestMonotone:
    def test_single_descent_is_monotone(self):
        assert is_monotone((1, 2, 3, 4, 5))
        assert is_monotone((3, 5, 1))  # rotation of a monotone cycle

    def test_example_cycle_not_monotone(self):
        assert not is_monotone((1, 6, 8, 4, 7, 2, 5))

    def test_ordered_decomposition(self):
        p = Permutation.from_cycles(7, [(1, 2, 3), (4, 5, 6, 7)])
        dec = is_monotone_ordered(p)
        assert dec is not None
        assert dec.blocks == ((0, 1, 2), (3, 4, 5, 6))

    def test_overlapping_supports_rejected(self):
        p = Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)])
        assert is_monotone_ordered(p) is None

    def test_non_monotone_subcycle_rejected(self):
        p = Permutation.from_cycles(5, [(1, 3, 2)])
        assert is_monotone_ordered(p) is None

    def test_gap_between_blocks_is_fine(self):
        p = Permutation.from_cycles(8, [(1, 2), (5, 6, 7)])
        dec = is_monotone_ordered(p)
        assert dec is not None
        assert dec.blocks == ((0, 1), (4, 5, 6))


class TestFixState:
    def test_basic(self):
        fs = FixState(5, {1}, {4})
        assert fs.is_consistent()
        assert fs.value(1) == 0 and fs.value(4) == 1 and fs.value(0) is None
        assert fs.unfixed() == [0, 2, 3]

    def test_inconsistency(self):
        assert not FixState(3, {0}, {0}).is_consistent()

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FixState(3, {3})
        with pytest.raises(ValueError, match="infeasible"):
            PropagationResult.infeasible().as_fixstate(3)

    def test_copy_is_independent(self):
        fs = FixState(4, {0}, set())
        c = fs.copy()
        c.fixed1.add(2)
        assert 2 not in fs.fixed1
