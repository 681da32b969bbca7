"""The four workloads: seeded specs, inputs, operations and answer checks.

A workload turns a seed into a *spec*: plain data made without cycfix, from
which both the program's inputs and the independent reference answers are
derived.  ``build`` makes the inputs with cycfix's own constructors and is
the only part timed as set-up; ``reference`` never touches cycfix.  Each
operation is one call into the program whose answer the caller waits for.

Why each workload exists (which layer it loads, and what it predicts):

- ``snark-rows``: flower snarks J5/J7 in modes nosym/gen/group.  Row
  propagation in ``solver.node_propagate`` does nearly all the work and the
  cyclic layer never runs.
- ``snark-peek``: J3/J5 in modes nopeek/peek under four relabelings.  The
  cyclic layer (stabilizers, subgroup restriction, peeks) does nearly all
  the work; the kernel is a small share of it.  J7 ``peek`` is left out: with
  original or max labels it runs past any sensible time limit today.
- ``kernel-long``: ``imptree.propagate_set`` alone on long monotone cycles
  (Theta(n^2) rooted-path walks) and on all powers of a monotone cycle (the
  O(m^2) completeness recheck).  Random permutations are left out: they
  finish after one horizon step and load nothing.
- ``planted-small``: about 1000 tiny solves, each parsing its instance
  document first, as ``cycfix solve`` does: thousands of tiny groups,
  kernel calls and solves.  A cache or index that pays off on long runs but
  adds cost per call loses here.

Seed semantics (``Workload.seed_use`` says the same in every result): the
snark workloads have no random inputs, and the seed does not reach the
program (``Settings.seed`` changes nothing in ``solve``), so runs with
different seeds repeat one measurement rather than sample new inputs.
``kernel-long`` draws its queries from the seed, with stratified sizes and
fixing positions so that seeds change the mix little.  ``planted-small`` draws only the order of
its operations from the seed; its programs are fixed (see the class).
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional, Sequence, Tuple

from . import refs

MODES = ("nosym", "gen", "group", "nopeek", "peek")
MAX_TWO_CYCLE_ORDER = 12
GOLDEN = (5 ** 0.5 - 1) / 2


def _close(a: Optional[float], b: Optional[float]) -> bool:
    return a is not None and b is not None and abs(a - b) <= refs.TOL


class Workload:
    """One workload; subclasses fill in the five steps."""

    name = ""
    seed_use = ""

    def spec(self, seed: int) -> List[Any]:
        raise NotImplementedError

    def build(self, prog, spec: Sequence[Any]) -> List[Any]:
        raise NotImplementedError

    def reference(self, spec: Sequence[Any]) -> List[Any]:
        raise NotImplementedError

    def run(self, prog, inp: Any, time_limit: float) -> Any:
        raise NotImplementedError

    def check(self, item: Any, expected: Any, answer: Any) -> Optional[str]:
        """None when the answer is right, else why it is wrong."""
        raise NotImplementedError

    def label(self, item: Any) -> str:
        return repr(item)


# -- flower snarks -------------------------------------------------------------


class _Snarks(Workload):
    seed_use = ("none: no random inputs, and Settings.seed changes nothing "
                "in solve, so seeds repeat one measurement")
    sizes: Tuple[int, ...] = ()
    modes: Tuple[str, ...] = ()
    relabels: Tuple[str, ...] = ()

    def spec(self, seed):
        # Labelings outermost: the short solves interleave with the long
        # ones, so the few samples near the median are spread over the round
        # instead of sharing one stretch of machine speed.
        return [(m, mode, rl) for rl in self.relabels for m in self.sizes
                for mode in self.modes]

    def build(self, prog, spec):
        programs = {m: prog.bench.gen_snark(m)[1] for m in self.sizes}
        return [(programs[m], mode, rl) for m, mode, rl in spec]

    def reference(self, spec):
        # Flower snarks have chromatic index 4: no 3-edge-colouring exists.
        return ["infeasible"] * len(spec)

    def run(self, prog, inp, time_limit):
        bp, mode, rl = inp
        solver = prog.solver
        return solver.solve(bp, solver.Settings(
            mode=mode, relabel=rl, time_limit=time_limit))

    def check(self, item, expected, answer):
        if answer.status != expected:
            return "status %s, expected %s" % (answer.status, expected)
        return None

    def label(self, item):
        return "J%d/%s/%s" % item


class SnarkRows(_Snarks):
    name = "snark-rows"
    sizes = (5, 7)
    modes = ("nosym", "gen", "group")
    relabels = ("original", "respect")


class SnarkPeek(_Snarks):
    name = "snark-peek"
    sizes = (3, 5)
    modes = ("nopeek", "peek")
    relabels = ("original", "max", "min", "respect")


# -- long monotone cycles --------------------------------------------------------


class _Rotation:
    """The inverse of x -> x + e (mod n) as a read-only sequence."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int):
        self.n = n
        self.e = e

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        return (k - self.e) % self.n


class KernelLong(Workload):
    """Queries ("cycle", n, fix0, fix1) and ("powers", n, fix0, fix1).

    A cycle query propagates the monotone n-cycle i -> i+1 alone, with 0-2
    fixings; a powers query propagates all n-1 non-identity powers of one
    together, with one fixing.  Sizes and fixing positions are stratified:
    the k-th size of a shape comes from the k-th equal slice of the shape's
    range, so every seed covers the range evenly and the seed moves a
    round's total work little.  Each powers list serves several queries
    with different fixings, as the solver's ``group`` mode reuses one
    element list at every node; that also keeps the inputs small.
    """

    name = "kernel-long"
    seed_use = "inputs: sizes within strata, fixings and query order"
    cycles = 68
    cycle_n = (400, 1600)
    power_sizes = 8
    queries_per_size = 4
    powers_n = (128, 512)

    def spec(self, seed):
        rng = random.Random(seed)
        out = []

        def stratum(k, count, lo, hi):
            return lo + int((hi - lo) * (k + rng.random()) / count)

        def fixings(k, n, count):
            # Where a fixing sits decides how soon the horizon stops, so
            # positions are stratified as well: fixing j of query k lies in
            # a slice of width n/16 that a golden-ratio sequence spreads
            # over the cycle.
            fix0, fix1 = set(), set()
            for j in range(count):
                frac = (GOLDEN * (2 * k + j + 1)) % 1.0
                p = int(n * (frac + rng.random() / 16)) % n
                if p in fix0 or p in fix1:
                    p = (p + 1) % n
                (fix1 if rng.random() < 0.5 else fix0).add(p)
            return frozenset(fix0), frozenset(fix1)

        for k in range(self.cycles):
            n = stratum(k, self.cycles, *self.cycle_n)
            out.append(("cycle", n) + fixings(k, n, k % 3))
        for k in range(self.power_sizes):
            n = stratum(k, self.power_sizes, *self.powers_n)
            for j in range(self.queries_per_size):
                q = k * self.queries_per_size + j
                out.append(("powers", n) + fixings(q, n, 1))
        rng.shuffle(out)
        return out

    @staticmethod
    def _exponents(shape, n):
        return range(1, 2) if shape == "cycle" else range(1, n)

    def build(self, prog, spec):
        Permutation, FixState = prog.core.Permutation, prog.core.FixState
        shared = {}
        inputs = []
        for shape, n, fix0, fix1 in spec:
            perms = shared.get((shape, n))
            if perms is None:
                perms = [Permutation([(i + e) % n for i in range(n)])
                         for e in self._exponents(shape, n)]
                if shape == "powers":
                    shared[shape, n] = perms
            inputs.append((perms, FixState(n, fix0, fix1)))
        return inputs

    def reference(self, spec):
        return [refs.lex_fixpoint(
                    [_Rotation(n, e) for e in self._exponents(shape, n)],
                    set(fix0), set(fix1))
                for shape, n, fix0, fix1 in spec]

    def run(self, prog, inp, time_limit):
        perms, fixings = inp
        return prog.imptree.propagate_set(perms, fixings)

    def check(self, item, expected, answer):
        if expected is None:
            return None if not answer.feasible else "feasible, expected not"
        if not answer.feasible:
            return "infeasible, expected feasible"
        if set(answer.fixed0) != expected[0] or \
                set(answer.fixed1) != expected[1]:
            return "fixings differ from the union-find reference"
        return None

    def label(self, item):
        shape, n, fix0, fix1 = item
        return "%s n=%d fix0=%s fix1=%s" % (shape, n, sorted(fix0),
                                             sorted(fix1))


# -- planted-symmetry programs ----------------------------------------------------


def planted_program(rng: random.Random, n: int):
    """(image, objective, rows) of a program that the permutation preserves.

    The permutation is one cycle, or two disjoint cycles whose lengths have
    a least common multiple of at most MAX_TWO_CYCLE_ORDER (solve time grows
    with the group order, and this workload is about tiny solves).  The
    cycles sit on random entries; the objective is constant on the orbits
    and every row is closed under the permutation, so the declared
    generator is a true symmetry.
    """
    if rng.random() < 0.6:
        lengths = (rng.randint(2, n),)
    else:
        lengths = rng.choice([
            (a, b) for a in range(2, n - 1) for b in range(a, n - a + 1)
            if math.lcm(a, b) <= MAX_TWO_CYCLE_ORDER])
    image = list(range(n))
    pool = rng.sample(range(n), n)
    pos = 0
    for length in lengths:
        cyc = pool[pos:pos + length]
        pos += length
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a] = b
    objective = [0.0] * n
    done = set()
    for i in range(n):
        if i in done:
            continue
        val = float(rng.randint(-5, 5))
        j = i
        while j not in done:
            done.add(j)
            objective[j] = val
            j = image[j]
    rows = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, min(4, n))
        coeffs = {i: float(rng.choice((-2, -1, 1, 2)))
                  for i in rng.sample(range(n), m)}
        sense = rng.choice(("<=", "<=", "=="))
        rhs = float(rng.randint(0, 3))
        while True:
            key = (tuple(sorted(coeffs.items())), sense, rhs)
            if key in rows:
                break
            rows[key] = key
            coeffs = {image[i]: a for i, a in coeffs.items()}
    return tuple(image), tuple(objective), tuple(rows)


class PlantedSmall(Workload):
    """100 planted programs, n = 8..14 in turn, x 5 modes x 2 labelings.

    The programs are the same for every seed: they come from the fixed
    PROGRAMS_SEED.  Solve time per program is heavy-tailed (a program's
    rows decide whether it is refuted at the root or searched), so 100
    freshly drawn programs would move wall_s by about 20% from seed to seed,
    more than any bound.  The run seed shuffles the order of the 1000
    operations.
    """

    name = "planted-small"
    seed_use = "order: the operations are shuffled; the programs are fixed"
    programs = 100
    relabels = ("original", "respect")
    programs_seed = 20220301

    def spec(self, seed):
        gen = random.Random(self.programs_seed)
        out = []
        for k in range(self.programs):
            n = 8 + k % 7
            image, objective, rows = planted_program(gen, n)
            for mode in MODES:
                for rl in self.relabels:
                    out.append((k, n, image, objective, rows, mode, rl))
        random.Random(seed).shuffle(out)
        return out

    def build(self, prog, spec):
        Permutation, Row = prog.core.Permutation, prog.solver.Row
        docs = {}
        inputs = []
        for k, n, image, objective, rows, mode, rl in spec:
            if k not in docs:
                bp = prog.solver.BinaryProgram(
                    n, list(objective),
                    [Row.make(dict(c), s, r) for c, s, r in rows],
                    None, [Permutation(image)])
                docs[k] = prog.bench.instance_to_dict("planted_%d" % k, bp)
            inputs.append((docs[k], mode, rl))
        return inputs

    def reference(self, spec):
        optimum = {}
        for k, n, image, objective, rows, mode, rl in spec:
            if k not in optimum:
                optimum[k] = refs.planted_optimum(n, objective, rows)
        return [optimum[item[0]] for item in spec]

    def run(self, prog, inp, time_limit):
        doc, mode, rl = inp
        solver = prog.solver
        _name, bp = prog.bench.parse_instance_dict(doc)
        return solver.solve(bp, solver.Settings(
            mode=mode, relabel=rl, time_limit=time_limit))

    def check(self, item, expected, answer):
        _k, n, _image, objective, rows, _mode, _rl = item
        if expected is None:
            if answer.status != "infeasible":
                return "status %s, expected infeasible" % answer.status
            return None
        if answer.status != "optimal":
            return "status %s, expected optimal" % answer.status
        if not _close(answer.objective, expected):
            return "objective %r, expected %r" % (answer.objective, expected)
        x = answer.incumbent
        if x is None or len(x) != n:
            return "no incumbent of length %d" % n
        bad = refs.row_violation(x, rows)
        if bad is not None:
            return "incumbent violates row %d" % bad
        if not _close(sum(c * v for c, v in zip(objective, x)), expected):
            return "incumbent objective differs from the optimum"
        return None

    def label(self, item):
        k, n, _image, _objective, _rows, mode, rl = item
        return "planted_%d n=%d %s/%s" % (k, n, mode, rl)


WORKLOADS = {w.name: w for w in (SnarkRows(), SnarkPeek(), KernelLong(),
                                 PlantedSmall())}
