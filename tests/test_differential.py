"""End-to-end differential tests of ``solve`` on multi-generator programs.

Each program has n = 4..11 variables and 1-3 declared generators, each a
product of 1-3 disjoint cycles; 30% of the programs also declare a power of
the first generator.  The objective is constant on the orbits of the
generated group and the rows are closed under it, so every generator is a
symmetry.  Every mode under every labeling must then agree with brute force
on the status, the optimum, and the incumbent's feasibility and value.

A program solved and then changed with ``dataclasses.replace`` must give
what a fresh program with the changed content gives, down to the search
counts and the objective's number type.

Three metamorphic relations need no brute force, so they run on planted
programs with n = 30..60: a generator g replaced by g^k with k prime to
ord g keeps the node and fixing counts of ``group`` under ``original``
(the unit's element set is the same); renaming the variables keeps the
status and the optimum in every cell; declaring g^2 beside g keeps them
too.
"""

import math
import random
from dataclasses import replace

import pytest

from cycfix.core import Permutation
from cycfix.solver import BinaryProgram, Row, Settings, node_propagate, solve

from conftest import (CELLS, brute_force_optimum, planted_symmetric_bp,
                      rand_fixstate, solve_outcome)


def disjoint_cycles(rng, n):
    """A permutation made of 1-3 disjoint cycles of length 2-5."""
    idx = rng.sample(range(n), n)
    image = list(range(n))
    pos = 0
    for _ in range(rng.randint(1, 3)):
        if n - pos < 2:
            break
        cycle = idx[pos:pos + rng.randint(2, min(5, n - pos))]
        pos += len(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return Permutation(image)


def closed_program(rng, n, max_rows=40):
    """A program whose objective and rows the declared generators keep, or
    None when the rows' closure under the group exceeds ``max_rows``."""
    gens = [disjoint_cycles(rng, n) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        gens.append(gens[0] ** rng.randint(2, 4))
    orbit = list(range(n))          # union-find over the generators' cycles

    def find(i):
        while orbit[i] != i:
            orbit[i] = orbit[orbit[i]]
            i = orbit[i]
        return i

    for g in gens:
        for i, j in enumerate(g.image):
            orbit[find(i)] = find(j)
    value = {}
    objective = [value.setdefault(find(i), float(rng.randint(-5, 5)))
                 for i in range(n)]
    rows, todo = {}, []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, min(4, n))
        todo.append(Row.make(
            {i: float(rng.choice([-2, -1, 1, 2]))
             for i in rng.sample(range(n), m)},
            rng.choice(["<=", "<=", "=="]), float(rng.randint(0, 3))))
    while todo:
        row = todo.pop()
        if row in rows:
            continue
        if len(rows) == max_rows:
            return None
        rows[row] = None
        todo += [Row.make({g.image[i]: a for i, a in row.coeffs},
                          row.sense, row.rhs) for g in gens]
    return BinaryProgram(n, objective, list(rows), None, gens)


def programs(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        bp = closed_program(rng, rng.randint(4, 11))
        if bp is not None:
            out.append(bp)
    return out


def test_every_mode_and_labeling_matches_brute_force():
    tally = {"optimal": 0, "infeasible": 0, "multi": 0, "power": 0}
    for bp in programs(22, 250):
        best = brute_force_optimum(bp)
        for mode, rl in CELLS:
            res = solve(bp, Settings(mode=mode, relabel=rl))
            ctx = (bp.generators, mode, rl)
            if best is None:
                assert res.status == "infeasible", ctx
                continue
            assert res.status == "optimal", ctx
            assert res.objective == pytest.approx(best[0]), ctx
            assert bp.is_feasible(res.incumbent), ctx
            assert bp.objective_value(res.incumbent) == \
                pytest.approx(best[0]), ctx
        tally["infeasible" if best is None else "optimal"] += 1
        tally["multi"] += len(bp.generators) > 1
        first = bp.generators[0]
        tally["power"] += any(g in {first ** e for e in range(2, 5)}
                              for g in bp.generators[1:])
    assert min(tally.values()) >= 20, tally


def drop_last_generator(bp):
    return replace(bp, generators=bp.generators[:-1])


def power_of_first_generator(bp):
    return replace(bp, generators=(bp.generators[0] ** 3,)
                   + bp.generators[1:])


def integral_objective(bp):
    return replace(bp, objective=map(int, bp.objective))


def drop_a_row(bp):
    return replace(bp, rows=bp.rows[1:])


MUTATIONS = (drop_last_generator, power_of_first_generator,
             integral_objective, drop_a_row)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
def test_solve_mutate_solve_matches_a_fresh_program(mutate):
    rng = random.Random(mutate.__name__)
    tally = {"moved": 0, "same": 0}
    for bp in programs(23, 30):
        if len(bp.generators) < 2 or not bp.rows:
            continue
        before = {cell: solve_outcome(bp, *cell) for cell in CELLS}
        new = mutate(bp)
        fresh = BinaryProgram(new.n, list(new.objective), list(new.rows),
                              list(new.names), list(new.generators))
        cells = CELLS[:]
        rng.shuffle(cells)
        for cell in cells:
            got = solve_outcome(new, *cell)
            assert got == solve_outcome(fresh, *cell), cell
            tally["same" if got == before[cell] else "moved"] += 1
    assert min(tally.values()) >= 10, tally


def renamed(bp, sigma):
    """bp with variable i renamed sigma(i): rows, objective, names and
    generators conjugated by sigma."""
    s = sigma.image
    objective, names = [0.0] * bp.n, [""] * bp.n
    for i in range(bp.n):
        objective[s[i]], names[s[i]] = bp.objective[i], bp.names[i]
    rows = [Row.make({s[i]: a for i, a in r.coeffs}, r.sense, r.rhs)
            for r in bp.rows]
    inv = sigma.inverse()
    return BinaryProgram(bp.n, objective, rows, names,
                         [sigma.compose(g).compose(inv)
                          for g in bp.generators])


def test_metamorphic_relations_on_larger_planted_programs():
    # The programs are fixed, and sized to about 3 s: search size is
    # heavy-tailed at this n, and one drawn program with n = 40 took
    # 827,891 nodes in one of its cells.
    rng, states = random.Random(7), random.Random(8)
    tally = {"searched": 0, "infeasible": 0, "power": 0, "node": 0}
    for _ in range(6):
        n = rng.randint(30, 60)
        bp = planted_symmetric_bp(rng, n)
        (g,) = bp.generators
        want = {cell: solve(bp, Settings(*cell)) for cell in CELLS}
        order = g.order()
        k = rng.choice([k for k in range(2, order) if math.gcd(k, order) == 1]
                       or [1])
        base = want["group", "original"]
        powered = replace(bp, generators=[g ** k])
        power = solve(powered, Settings("group", "original"))
        assert (power.status, power.objective, power.nodes,
                power.sym_fixings) == (base.status, base.objective,
                                       base.nodes, base.sym_fixings), k
        for _ in range(10):     # and the same fixings at any node
            fs = rand_fixstate(states, n, 0.05, 0.05)
            a, b = fs.copy(), fs.copy()
            ok = node_propagate(bp, a, Settings("group"))
            assert ok == node_propagate(powered, b, Settings("group")), k
            assert not ok or (a.fixed0, a.fixed1) == (b.fixed0, b.fixed1)
            tally["node"] += ok and len(a.fixed0 | a.fixed1) > len(
                fs.fixed0 | fs.fixed1)
        sigma = Permutation(rng.sample(range(n), n))
        for other in (renamed(bp, sigma),
                      replace(bp, generators=[g, g ** 2])):
            for cell in CELLS:
                got = solve(other, Settings(*cell))
                assert (got.status, got.objective) == \
                    (want[cell].status, want[cell].objective), cell
                if got.incumbent is not None:
                    assert other.is_feasible(got.incumbent), cell
        tally["searched"] += max(r.nodes for r in want.values()) > 1
        tally["infeasible"] += base.status == "infeasible"
        tally["power"] += k != 1
    assert tally["searched"] >= 3 and min(tally.values()) >= 1, tally
