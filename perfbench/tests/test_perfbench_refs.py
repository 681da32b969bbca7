"""The answer references against cycfix's oracle and against each other.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from cycfix.core import FixState, Permutation  # noqa: E402
from cycfix.imptree import propagate_set  # noqa: E402
from cycfix.oracle import per_perm_fixpoint_oracle  # noqa: E402
from perfbench import refs  # noqa: E402
from perfbench.workloads import (WORKLOADS, _Rotation,  # noqa: E402
                                 planted_program)


def _random_case(rng):
    n = rng.randint(2, 10)
    perms = []
    for _ in range(rng.randint(1, 4)):
        image = list(range(n))
        while image == list(range(n)):
            rng.shuffle(image)
        perms.append(Permutation(image))
    fix0, fix1 = set(), set()
    for i in range(n):
        r = rng.random()
        if r < 0.2:
            fix0.add(i)
        elif r < 0.4:
            fix1.add(i)
    return n, perms, fix0, fix1


def _same(result, expected):
    if expected is None:
        return not result.feasible
    return result.feasible and set(result.fixed0) == expected[0] \
        and set(result.fixed1) == expected[1]


def test_union_find_reference_matches_oracle():
    rng = random.Random(2203)
    for _ in range(1500):
        n, perms, fix0, fix1 = _random_case(rng)
        want = per_perm_fixpoint_oracle(perms, FixState(n, fix0, fix1))
        got = refs.lex_fixpoint([g.inv for g in perms], fix0, fix1)
        assert _same(want, got), (perms, fix0, fix1)


def test_union_find_reference_matches_kernel_on_long_cycles():
    rng = random.Random(5)
    n = 400
    cycle = Permutation([(i + 1) % n for i in range(n)])
    for nfix in (0, 1, 2, 2):
        fix0, fix1 = set(), set()
        for p in rng.sample(range(n), nfix):
            (fix1 if rng.random() < 0.5 else fix0).add(p)
        got = refs.lex_fixpoint([cycle.inv], fix0, fix1)
        assert _same(propagate_set([cycle], FixState(n, fix0, fix1)), got)
    n = 64
    powers = [Permutation([(i + e) % n for i in range(n)])
              for e in range(1, n)]
    for p, v in ((0, 0), (5, 1), (40, 0), (63, 1)):
        fix0, fix1 = ({p}, set()) if v == 0 else (set(), {p})
        got = refs.lex_fixpoint([g.inv for g in powers], fix0, fix1)
        assert _same(propagate_set(powers, FixState(n, fix0, fix1)), got)


def test_kernel_long_references_use_the_same_permutations():
    """The lazy rotations equal the inverses of the built permutations."""
    workload = WORKLOADS["kernel-long"]
    item = min(workload.spec(3), key=lambda q: q[1])
    shape, n = item[0], item[1]
    for e in workload._exponents(shape, n):
        perm = Permutation([(i + e) % n for i in range(n)])
        rotation = _Rotation(n, e)
        assert list(perm.inv) == [rotation[k] for k in range(n)]


def test_planted_optimum_matches_plain_enumeration():
    rng = random.Random(11)
    infeasible = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        _image, objective, rows = planted_program(rng, n)
        best = None
        for x in itertools.product((0, 1), repeat=n):
            if refs.row_violation(x, rows) is None:
                val = sum(c * v for c, v in zip(objective, x))
                best = val if best is None else max(best, val)
        got = refs.planted_optimum(n, objective, rows)
        if best is None:
            infeasible += 1
            assert got is None
        else:
            assert abs(got - best) < 1e-9
    assert 0 < infeasible < 60


def test_row_violation():
    rows = [(((0, 1.0), (1, 1.0)), "<=", 1.0), (((2, 2.0),), "==", 2.0)]
    assert refs.row_violation((1, 0, 1), rows) is None
    assert refs.row_violation((1, 1, 1), rows) == 0
    assert refs.row_violation((0, 0, 0), rows) == 1
