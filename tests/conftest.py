"""Shared builders for randomized test cases."""

import random
from typing import List, Optional, Tuple

import pytest

from cycfix import solver as solver_module
from cycfix.core import FixState, Permutation
from cycfix.cyclic import CyclicSubgroup
from cycfix.solver import MODES, RELABELS, BinaryProgram, Row, Settings, solve

CELLS = [(mode, rl) for mode in MODES for rl in RELABELS]


@pytest.fixture
def row_index_builds(monkeypatch):
    """The programs whose ``solver._RowIndex`` is built during the test."""
    built = []

    class Counted(solver_module._RowIndex):
        def __init__(self, bp):
            built.append(bp)
            super().__init__(bp)

    monkeypatch.setattr(solver_module, "_RowIndex", Counted)
    return built


def rand_perm(rng: random.Random, n: int) -> Permutation:
    """A uniformly random non-identity permutation of [n]."""
    while True:
        image = list(range(n))
        rng.shuffle(image)
        p = Permutation(image)
        if not p.is_identity():
            return p


def rand_fixstate(rng: random.Random, n: int,
                  p0: float = 0.2, p1: float = 0.2) -> FixState:
    fs = FixState(n)
    for i in range(n):
        r = rng.random()
        if r < p0:
            fs.fixed0.add(i)
        elif r < p0 + p1:
            fs.fixed1.add(i)
    return fs


def monotone_cycle_on(support: List[int], n: int) -> Permutation:
    """The monotone cycle on a support: each entry to the next larger one."""
    s = sorted(support)
    image = list(range(n))
    for a, b in zip(s, s[1:]):
        image[a] = b
    image[s[-1]] = s[0]
    return Permutation(image)


def rand_monotone_group(rng: random.Random, n: int) -> CyclicSubgroup:
    """Monotone single-cycle generator with a random exponent subgroup."""
    k = rng.randint(2, n)
    support = rng.sample(range(n), k)
    gen = monotone_cycle_on(support, n)
    ordg = gen.order()
    divisors = [d for d in range(1, ordg + 1) if ordg % d == 0 and d < ordg]
    d = rng.choice(divisors)
    return CyclicSubgroup(gen, range(d, ordg, d))


def rand_ordered_monotone_group(
    rng: random.Random, n: int, max_blocks: int = 4
) -> CyclicSubgroup:
    """Generator composed of order-separated monotone subcycles."""
    nblocks = rng.randint(1, max_blocks)
    image = list(range(n))
    pos = 0
    built = 0
    while built < nblocks and pos + 2 <= n:
        width = rng.randint(2, min(4, n - pos))
        support = sorted(rng.sample(range(pos, pos + width), max(2, rng.randint(2, width))))
        for a, b in zip(support, support[1:]):
            image[a] = b
        image[support[-1]] = support[0]
        pos += width + rng.randint(0, 1)
        built += 1
    gen = Permutation(image)
    if gen.is_identity():
        return rand_ordered_monotone_group(rng, n, max_blocks)
    ordg = gen.order()
    divisors = [d for d in range(1, ordg + 1) if ordg % d == 0 and d < ordg]
    d = rng.choice(divisors)
    return CyclicSubgroup(gen, range(d, ordg, d))


def planted_symmetric_bp(rng: random.Random, n: int) -> BinaryProgram:
    """Random binary program whose rows and objective admit a cyclic symmetry."""
    idx = list(range(n))
    rng.shuffle(idx)
    support = idx[:rng.randint(2, n)]
    image = list(range(n))
    for a, b in zip(support, support[1:]):
        image[a] = b
    image[support[-1]] = support[0]
    gen = Permutation(image)

    objective = [0.0] * n
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        val = float(rng.randint(-5, 5))
        j = i
        while j not in seen:
            seen.add(j)
            objective[j] = val
            j = gen.image[j]

    rows = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, min(4, n))
        coeffs = {i: float(rng.choice([-2, -1, 1, 2]))
                  for i in rng.sample(range(n), m)}
        sense = rng.choice(["<=", "<=", "=="])
        rhs = float(rng.randint(0, 3))
        row = Row.make(coeffs, sense, rhs)
        for _ in range(gen.order()):
            rows[(row.coeffs, row.sense, row.rhs)] = row
            row = Row.make({gen.image[i]: a for i, a in row.coeffs},
                           row.sense, row.rhs)
    bp = BinaryProgram(n, objective, list(rows.values()), None, [gen])
    assert bp.check_symmetry(gen)
    return bp


def solve_outcome(bp, mode, rl):
    """A solve's answer and search counts, or the ValueError it raised."""
    try:
        r = solve(bp, Settings(mode=mode, relabel=rl))
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (r.status, r.objective, type(r.objective), r.incumbent, r.nodes,
            r.sym_fixings)


def brute_force_optimum(bp: BinaryProgram) -> Optional[Tuple[float, Tuple[int, ...]]]:
    """Exhaustive optimum of a binary program, or None when infeasible."""
    best = None
    for mask in range(1 << bp.n):
        x = tuple((mask >> i) & 1 for i in range(bp.n))
        if bp.is_feasible(x):
            v = bp.objective_value(x)
            if best is None or v > best[0] + 1e-9:
                best = (v, x)
    return best
