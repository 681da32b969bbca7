import ast
import random

import pytest

from cycfix import oracle
from cycfix.core import FixState, Permutation
from cycfix.imptree import propagate_set
from cycfix.oracle import (CapacityError, complete_fixings_oracle,
                           enumerate_feasible, is_lex_leader,
                           per_perm_fixpoint_oracle)

from conftest import rand_fixstate, rand_perm

GAMMA1 = Permutation.from_cycles(8, [(1, 6, 8, 4, 7, 2, 5)])
GAMMA2 = Permutation.from_cycles(8, [(1, 3, 6, 2, 4, 5)])


class TestEnumeration:
    def test_lex_leader_filter(self):
        gamma = Permutation.from_cycles(3, [(1, 2, 3)])
        enum = enumerate_feasible([gamma], FixState(3))
        # survivors are exactly the vectors at least their rotation
        for x in enum.vectors:
            assert tuple(x) >= gamma.apply(x)
        assert (0, 0, 1) not in enum.vectors
        assert (1, 0, 0) in enum.vectors
        assert (0, 0, 0) in enum.vectors

    def test_respects_fixings(self):
        gamma = Permutation.from_cycles(3, [(1, 2, 3)])
        enum = enumerate_feasible([gamma], FixState(3, set(), {2}))
        assert all(x[2] == 1 for x in enum.vectors)

    def test_inconsistent_fixings_empty(self):
        gamma = Permutation.from_cycles(3, [(1, 2)])
        assert enumerate_feasible([gamma], FixState(3, {0}, {0})).vectors == []

    def test_capacity_error(self):
        gamma = Permutation.from_cycles(30, [(1, 2)])
        with pytest.raises(CapacityError):
            enumerate_feasible([gamma], FixState(30))


class TestCompleteFixings:
    def test_constant_coordinates_only(self):
        gamma = Permutation.from_cycles(4, [(1, 2, 3, 4)])
        res = complete_fixings_oracle([gamma], FixState(4))
        enum = enumerate_feasible([gamma], FixState(4))
        for i in res.fixed0:
            assert all(x[i] == 0 for x in enum.vectors)
        for i in res.fixed1:
            assert all(x[i] == 1 for x in enum.vectors)

    def test_infeasible(self):
        res = complete_fixings_oracle(
            [Permutation.from_cycles(2, [(1, 2)])], FixState(2, {0}, {1}))
        assert not res.feasible

    def test_cyclic_gap_example(self):
        # the group oracle fixes more than per-permutation propagation can
        gamma = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        perms = [gamma ** k for k in range(1, 5)]
        fs = FixState(5, {1, 4}, set())
        group = complete_fixings_oracle(perms, fs)
        per_perm = per_perm_fixpoint_oracle(perms, fs)
        assert group.fixed0 == frozenset({1, 3, 4})
        assert per_perm.fixed0 == frozenset({1, 4})


class TestPerPermFixpoint:
    def test_single_perm_is_complete_fixings(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = rand_perm(rng, n)
            fs = rand_fixstate(rng, n)
            assert per_perm_fixpoint_oracle([g], fs.copy()) == \
                complete_fixings_oracle([g], fs.copy())

    def test_worked_example(self):
        fs = FixState(8, {3, 5}, {4})
        res = per_perm_fixpoint_oracle([GAMMA1, GAMMA2], fs)
        assert res.feasible
        assert 0 in res.fixed1
        assert 6 in res.fixed0
        assert res == propagate_set([GAMMA1, GAMMA2], FixState(8, {3, 5}, {4}))


def test_is_lex_leader():
    gamma = Permutation.from_cycles(3, [(1, 2, 3)])
    assert is_lex_leader((1, 0, 0), [gamma, gamma ** 2])
    assert not is_lex_leader((0, 1, 0), [gamma, gamma ** 2])
    assert is_lex_leader((1, 1, 1), [gamma, gamma ** 2])


def test_oracle_shares_no_code_with_the_propagators():
    """The oracle is ground truth, so from this package it imports only
    the permutation and fixing-set types of ``cycfix.core``."""
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    ours = {m for m in imported if m.startswith((".", "cycfix"))}
    assert ours == {".core"}
