"""Minimal depth-first branch-and-bound with symmetry propagation hooks.

The solver is LP-free: bounding uses the sum of positive unfixed objective
coefficients, domain reduction uses min/max row activities, and symmetry
handling is pure node-local propagation in one of five modes (listed below).

:func:`node_propagate` holds the one fixpoint loop over propagators: each
turn runs the row queue, then one pass over the symmetry units, and stops
after a pass that fixes nothing.  Row propagation is event-driven.  An
index made once per program set-up (:class:`_RowIndex`) maps each
variable and value to the rows whose activity bounds that fixing
tightens, in three kinds:

- implications: for the rows that the fixing alone decides (a set-packing
  row when an entry goes to 1, say), the union of their other entries at
  their values at min activity, which the fixing fixes directly, or finds
  the rows violated;
- clause rows (``==`` rows whose coefficients and rhs are all 1, such as
  set-partitioning rows) for a fixing to 0: a scan of the row's entries
  finds it satisfied, violated, or with one free entry, which it fixes
  to 1;
- the other rows, which a queue rechecks by their activities.

A search child differs from its parent's fixpoint by its branching fixing
alone, so its rows start from the rows that fixing tightens; a later
turn's start from the rows the symmetry pass's fixings tighten.
A unit of explicit permutations runs only when :func:`fixes_nothing` does
not certify it: if both fills of the current fixings (free entries all 0,
and all 1) are lex-leaders under the unit, every free entry takes both
values, so the unit would fix nothing and find nothing infeasible.  The
ordered path makes the same check at each block, with an exact lex-leader
test under the acting subgroup that builds no permutation
(``CyclicSubgroup.leads``).  Every propagator in a
node extends the node's :class:`FixState` in place and returns False when
it is infeasible; only the public entries ``propagate_set`` and
``propagate_ordered_monotone`` copy it and return a ``PropagationResult``,
whose fixings the symmetry pass adds to the node's state.  The modes:

- ``nosym``  — no symmetry handling;
- ``gen``    — propagate each declared generator's constraint individually;
- ``group``  — propagate all (safeguard-capped) powers of each generator
  individually, to a joint fixpoint;
- ``nopeek`` — complete block propagation for ordered monotone generators
  without value peeking (power propagation as fallback);
- ``peek``   — like ``nopeek`` plus value peeking on the ordered
  generators; an unordered generator's powers run as in ``nopeek``.

A relabeling strategy other than ``original`` transforms the whole instance
up front so generators become monotone/ordered and maps incumbents back.

A program is immutable, so its set-up (the generator check, and per
labeling the relabeled program and plan, the row index and the symmetry
units) is made once and kept on the program (:class:`_SetUp`), and a
repeated solve's ``wall_time`` leaves it out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import FixState, Permutation, group_elements, is_monotone_ordered
from .cyclic import (CyclicSubgroup, RelabelPlan, _is_lex_leader,
                     fixes_nothing, propagate_ordered_monotone, relabel)
from .imptree import propagate_set

MODES = ("nosym", "gen", "group", "nopeek", "peek")
RELABELS = ("original", "max", "min", "respect")

EPS = 1e-9
FEASIBILITY_TOL = 1e-6  # is_feasible's


@dataclass(frozen=True)
class Row:
    """One linear row: sum(coeffs[i] * x_i) sense rhs, sense in {'<=', '=='}."""

    coeffs: Tuple[Tuple[int, float], ...]
    sense: str
    rhs: float

    @classmethod
    def make(cls, coeffs: Dict[int, float], sense: str, rhs: float) -> "Row":
        if sense not in ("<=", "=="):
            raise ValueError("row sense must be '<=' or '==', got %r" % sense)
        return cls(tuple(sorted(coeffs.items())), sense, rhs)


def _round9(v: float) -> float:
    """``round(v, 9)``.  An integral value comes back unchanged, as round
    would return it, without round's cost."""
    return v if v % 1.0 == 0.0 else round(v, 9)


@dataclass(frozen=True)
class BinaryProgram:
    """max c^T x over binary x subject to rows; generators declare symmetry.

    A program is a value: ``objective``, ``rows``, ``names`` and
    ``generators`` are stored as tuples (lists are accepted), no field can
    be reassigned, and a changed program is ``dataclasses.replace(bp,
    ...)``, a new value.  Building one checks it and gives it an empty
    set-up record (:class:`_SetUp`) as ``_setup``, which every solve of it
    fills and reads.  Raises ValueError unless the objective and names have
    n entries, each generator acts on n points, and every row entry is an
    int in 0..n-1."""

    n: int
    objective: Tuple[float, ...]
    rows: Tuple[Row, ...]
    names: Optional[Tuple[str, ...]] = None
    generators: Tuple[Permutation, ...] = ()

    def __post_init__(self) -> None:
        n, put = self.n, object.__setattr__
        if self.names is None:
            put(self, "names", ["x%d" % (i + 1) for i in range(n)])
        for name in ("objective", "rows", "names", "generators"):
            put(self, name, tuple(getattr(self, name)))
        if len(self.objective) != n:
            raise ValueError("objective length != n")
        if len(self.names) != n:
            raise ValueError("names length != n")
        for g in self.generators:
            if g.n != n:
                raise ValueError("generator ground set mismatch")
        for r, row in enumerate(self.rows, start=1):
            for i, _a in row.coeffs:
                if type(i) is not int or not 0 <= i < n:
                    raise ValueError("row %d has entry %r outside 0..%d"
                                     % (r, i, n - 1))
        put(self, "_setup", _SetUp())

    def check_symmetry(self, perm: Permutation) -> bool:
        """Algebraic invariance: objective constant on orbits (within EPS),
        rows map to rows.  This implies the permutation maps feasible points
        to feasible points of equal objective."""
        return self._is_symmetry(perm, self._row_keys())

    def check_generators(self) -> None:
        """Raise ValueError naming the first declared generator (1-based)
        that :meth:`check_symmetry` rejects.  A pass is recorded on the
        program, so checking it again is free."""
        self._setup.check(self)

    def _row_keys(self) -> List[Tuple[tuple, Tuple[int, ...],
                                      Tuple[float, ...]]]:
        """Per row: its key (sense, rhs, sorted (entry, coeff) pairs) with
        numbers rounded to 9 digits, its entries and its rounded coeffs."""
        out = []
        for row in self.rows:
            entries, raw = tuple(zip(*row.coeffs)) or ((), ())
            coeffs = tuple(map(_round9, raw))
            key = (row.sense, _round9(row.rhs),
                   tuple(sorted(zip(entries, coeffs))))
            out.append((key, entries, coeffs))
        return out

    def _is_symmetry(self, perm: Permutation,
                     keys: List[Tuple[tuple, Tuple[int, ...],
                                      Tuple[float, ...]]]) -> bool:
        img, obj = perm.image, self.objective
        for j, c in zip(img, obj):
            if abs(obj[j] - c) > EPS:
                return False
        # Rows that avoid the support map to themselves; the others must
        # map onto each other as a multiset.
        moved = {i for i, j in enumerate(img) if i != j}
        left: Dict[tuple, int] = {}
        mapped = []
        for key, entries, coeffs in keys:
            if moved.isdisjoint(entries):
                continue
            left[key] = left.get(key, 0) + 1
            mapped.append((key[0], key[1], tuple(sorted(
                zip(map(img.__getitem__, entries), coeffs)))))
        for k in mapped:
            if left.get(k, 0) <= 0:
                return False
            left[k] -= 1
        return True

    def objective_value(self, x: Sequence[int]) -> float:
        return sum(c * v for c, v in zip(self.objective, x))

    def is_feasible(self, x: Sequence[int]) -> bool:
        for row in self.rows:
            act = sum(a * x[i] for i, a in row.coeffs)
            if row.sense == "<=" and act > row.rhs + FEASIBILITY_TOL:
                return False
            if row.sense == "==" and abs(act - row.rhs) > FEASIBILITY_TOL:
                return False
        return True


class _SetUp:
    """What :func:`solve` derives from one program, kept on it as
    ``_setup``: whether its generators passed
    :meth:`~BinaryProgram.check_generators`, and per relabeling strategy
    the relabeled program (None: the program itself), plan,
    :class:`_RowIndex` and symmetry units by shape.  A search writes only
    the lazy caches of its permutations and cyclic groups."""

    __slots__ = ("checked", "labelings")

    def __init__(self):
        self.checked = False
        self.labelings: dict = {}

    def check(self, bp: BinaryProgram) -> None:
        """:meth:`BinaryProgram.check_generators` on bp, once."""
        if self.checked:
            return
        keys = bp._row_keys() if bp.generators else []
        for k, g in enumerate(bp.generators, start=1):
            if not bp._is_symmetry(g, keys):
                raise ValueError(
                    "generator %d %r is not a symmetry of the program"
                    % (k, g))
        self.checked = True

    def labeling(self, bp: BinaryProgram, strategy: str, mode: str) -> Tuple[
            BinaryProgram, Optional[RelabelPlan], _RowIndex, list]:
        """The program, plan, row index and symmetry units of a solve of bp
        under ``strategy`` and ``mode``; ``peek`` shares ``nopeek``'s
        units."""
        lab = self.labelings.get(strategy)
        if lab is None:
            work, plan = bp, None
            gens = [g for g in bp.generators if not g.is_identity()]
            if strategy != "original" and gens:
                plan = relabel(gens, strategy)
                image = plan.labeling.image
                objective, names = [0.0] * bp.n, [""] * bp.n
                for i in range(bp.n):
                    objective[image[i]] = bp.objective[i]
                    names[image[i]] = bp.names[i]
                work = BinaryProgram(
                    bp.n, objective,
                    [Row.make({image[i]: a for i, a in r.coeffs}, r.sense,
                              r.rhs) for r in bp.rows],
                    names, [plan.apply_to(g) for g in bp.generators])
            lab = self.labelings[strategy] = (
                None if work is bp else work, plan, _RowIndex(work), {})
        work, plan, rows, units = lab
        work = bp if work is None else work
        shape = "nopeek" if mode == "peek" else mode
        if shape not in units:
            units[shape] = _units(work, shape)
        return work, plan, rows, units[shape]


@dataclass(frozen=True)
class Settings:
    mode: str = "nosym"
    relabel: str = "original"
    time_limit: Optional[float] = None  # seconds; None or inf: no limit

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.relabel not in RELABELS:
            raise ValueError("unknown relabel strategy %r" % (self.relabel,))
        t = self.time_limit
        # not t >= 0 also holds for NaN, which no deadline test would meet
        if t is not None and (isinstance(t, bool) or not isinstance(
                t, (int, float)) or not t >= 0):
            raise ValueError("time limit %r is not a number >= 0" % (t,))


@dataclass
class SolveResult:
    status: str                      # optimal | infeasible | timelimit
    objective: Optional[float]
    incumbent: Optional[Tuple[int, ...]]
    nodes: int
    sym_fixings: int
    wall_time: float
    sym_time: float


def _units(bp: BinaryProgram, shape: str) -> List[Tuple[str, object]]:
    """bp's symmetry units in mode ``shape``: ``("ordered", subgroup)`` for
    an ordered monotone generator in ``nopeek``, else ``("perms", list)``
    for :func:`propagate_set`: the generators in ``gen``, one generator's
    (safeguard-capped) powers otherwise."""
    gens = [g for g in bp.generators if not g.is_identity()]
    if shape == "nosym" or not gens:
        return []
    if shape == "gen":
        return [("perms", gens)]
    units = []
    for g in gens:
        if shape != "group" and is_monotone_ordered(g) is not None:
            units.append(("ordered", CyclicSubgroup.generated_by(g)))
        else:
            elems = group_elements(g)
            if elems:
                units.append(("perms", elems))
    return units


class _SymmetryEngine:
    """A solve's symmetry propagation: its units, shared through the
    program's :class:`_SetUp`, and the solve's counters."""

    def __init__(self, units: List[Tuple[str, object]], mode: str):
        self.units, self.mode = units, mode
        self.sym_fixings = 0     # entries the passes fixed, and their time
        self.sym_time = 0.0

    def propagate(self, fs: FixState) -> bool:
        """One pass over the symmetry units, extending ``fs`` in place;
        False = infeasible.

        :func:`node_propagate` repeats the pass, with the rows in between,
        until a pass fixes nothing.
        """
        t0 = time.perf_counter()
        before = len(fs.fixed0) + len(fs.fixed1)
        peek = self.mode == "peek"
        try:
            for kind, unit in self.units:
                if kind == "ordered":
                    res = propagate_ordered_monotone(
                        unit, fs, compute_fixings=peek)
                elif fixes_nothing(lambda x: _is_lex_leader(x, unit), fs):
                    continue  # both fills certify the unit: a no-op
                else:
                    res = propagate_set(unit, fs)
                if not res.feasible:
                    return False
                fs.fixed0 |= res.fixed0
                fs.fixed1 |= res.fixed1
            return True
        finally:
            self.sym_fixings += len(fs.fixed0) + len(fs.fixed1) - before
            self.sym_time += time.perf_counter() - t0


class _RowIndex:
    """A program's row data for :func:`_row_propagate`.

    ``rows[r]`` is ``(terms, is_eq, rhs)``; a term is ``(entry, coeff,
    min(coeff, 0), max(coeff, 0), |coeff|, w)``, w the entry's value at
    min activity.  A fixing of i to v tightens a row when it raises the
    row's min activity (coeff > 0 for v = 1, < 0 for v = 0) or lowers an
    ``==`` row's max activity (the other sign).  Each such row is handled
    in one of three ways at (i, v):

    - *settled*, when that fixing alone decides the row: every other term
      is then forced to its value at min activity, and the row holds at
      that activity.  ``settle[v][i]`` is one pair ``(zeros, ones)``, the
      union over every row that i = v settles of the row's other entries
      whose value at min activity is 0, and of those whose value is 1;
    - *clause*, for v = 0 in a clause row, an ``==`` row whose coeffs and
      rhs are all 1: ``clause[i]`` holds the tuple of the row's entries;
    - *woken* otherwise: ``wake[v][i]`` holds the row's index.

    An exact ``<=`` row whose max activity is at most its rhs can never
    force an entry or fail, so it is in no list.

    The settle test is closed-form.  With ``lo`` the min activity once i
    is at v, the row settles when ``lo <= rhs`` (``== rhs`` for ``==``
    rows) and raising any other term by its |coeff| would exceed the rhs:
    ``lo + min |coeff_j| > rhs`` over j != i.  Only *exact* rows settle:
    an integral rhs and coeffs, with sum |coeff| + |rhs| < 2**53, so every
    partial sum is exact and ``lo`` is the pop's min activity in any order.
    A clause row settles on every 1-fixing and never on a 0-fixing.
    """

    __slots__ = ("rows", "wake", "settle", "clause")

    def __init__(self, bp: BinaryProgram):
        self.rows: List[Tuple[tuple, bool, float]] = []
        n = bp.n
        self.wake = ([[] for _ in range(n)], [[] for _ in range(n)])
        empty = ((), ())
        self.settle = ([empty] * n, [empty] * n)
        self.clause: List[tuple] = [()] * n
        wake, settle, clause = self.wake, self.settle, self.clause
        for r, row in enumerate(bp.rows):
            is_eq, rhs = row.sense == "==", row.rhs
            # slack: rhs minus the min activity; top: the max activity;
            # least and second: the two smallest |coeff|; unit: every
            # coeff is 1.
            terms = []
            slack, top, size, exact = rhs, 0.0, abs(rhs), rhs % 1 == 0
            least = second = float("inf")
            unit = is_eq and rhs == 1
            for i, a in row.coeffs:
                mag = abs(a)
                if a < 0:
                    slack += mag
                    terms.append((i, a, a, 0.0, mag, 1))
                else:
                    top += a
                    terms.append((i, a, 0.0, a, mag, 0))
                size += mag
                exact = exact and mag % 1 == 0
                unit = unit and a == 1
                if mag < second:
                    least, second = (mag, least) if mag < least else \
                        (least, mag)
            terms = tuple(terms)
            self.rows.append((terms, is_eq, rhs))
            exact = exact and size < 2 ** 53
            if exact and not is_eq and top <= rhs:
                continue        # the row never binds
            entries = tuple(t[0] for t in terms) if unit else None
            for i, a, _amin, _amax, mag, w in terms:
                if not a:
                    continue    # tightens nothing
                other = second if mag == least else least
                # At 1 - w, i raises the min activity by mag; at w, it
                # lowers an '==' row's max activity.  At most one of the
                # two settles the row: the first needs slack >= mag > 0,
                # the second slack == 0.
                if exact and mag <= slack < mag + other and \
                        (slack == mag or not is_eq):
                    v = 1 - w
                else:
                    wake[1 - w][i].append(r)
                    v = w if is_eq and exact and slack == 0 < other else -1
                if is_eq and v != w:
                    if unit:
                        clause[i] += (entries,)
                    else:
                        wake[w][i].append(r)
                if v >= 0:
                    pair = settle[v][i]
                    if pair is empty:
                        pair = settle[v][i] = ([], [])
                    for j, _b, _bmin, _bmax, _bmag, u in terms:
                        if j != i and j not in pair[u]:
                            pair[u].append(j)


def _row_propagate(index: _RowIndex, fs: FixState,
                   wake: Optional[Iterable[int]] = None) -> bool:
    """Min/max-activity domain propagation; False when a row is violated.

    Event-driven.  A stack holds the new fixings and a queue the rows to
    (re)check.  The stack starts with the entries of ``wake``, at their
    values in ``fs`` (every fixed entry, and every row queued, when
    ``wake`` is None).  Handling a fixing of i to v:

    - for v = 0, scans each clause row of i: an entry at 1 satisfies it;
      with no entry free it is violated; with one free, that entry is
      fixed to 1;
    - fixes the entries of ``settle[v][i]``, or finds the rows violated
      when one of them is at its other value;
    - queues ``wake[v][i]``.

    A pop that fixes entries pushes them, and the stack is drained before
    the next pop.  A popped row's free term is forced when its other value
    would lift the min activity above the rhs (``lo + |a|``) or, in an
    ``==`` row, drop the max activity below it (``hi - |a|``).

    The loop ends at the same fixpoint as rescanning every row until a
    pass changes nothing.  The rules only fire more as fixings grow, and a
    fixing leaves every rule of a row it does not tighten as it was.  A
    woken row is popped after the last fixing that tightened it.  A
    settled row is fully fixed at an activity that meets it, so no rule of
    it is pending.  A clause row's rules are the pop's rules at its final
    state: every entry fixing is pushed and each push is popped, and the
    last pop among the row's entries sees every entry at its final value.
    If an entry is at 1, its pop has applied ``lo + 1 > rhs`` (the others
    at 0) through its settle pair.  Otherwise that last pop is of a
    0-fixing, and its scan applies ``hi - 1 < rhs`` (the one free entry
    at 1, or none free: violated).  The caller may seed with just the
    entries fixed since the rows were last at a fixpoint.
    """
    rows, lists, settle, clause = \
        index.rows, index.wake, index.settle, index.clause
    f0, f1 = fs.fixed0, fs.fixed1
    if wake is None:
        queue = list(range(len(rows) - 1, -1, -1))
        queued = bytearray(b"\x01") * len(rows)
        stack = list(f0 | f1)
    else:
        queue = []
        queued = bytearray(len(rows))
        stack = list(wake)
    while True:
        while stack:
            i = stack.pop()
            v = i in f1
            if not v:
                for entries in clause[i]:
                    free = -1
                    for j in entries:
                        if j in f1:
                            break       # satisfied
                        if j not in f0:
                            if free >= 0:
                                break   # two free: nothing to force
                            free = j
                    else:
                        if free < 0:
                            return False
                        f1.add(free)
                        stack.append(free)
            zeros, ones = settle[v][i]
            if zeros:
                for j in zeros:
                    if j in f1:
                        return False
                    if j not in f0:
                        f0.add(j)
                        stack.append(j)
            if ones:
                for j in ones:
                    if j in f0:
                        return False
                    if j not in f1:
                        f1.add(j)
                        stack.append(j)
            rs = lists[v][i]
            if rs:
                for r in rs:
                    if not queued[r]:
                        queued[r] = 1
                        queue.append(r)
        if not queue:
            return True
        r = queue.pop()
        queued[r] = 0
        terms, is_eq, rhs = rows[r]
        lo = hi = 0.0
        free = []
        for t in terms:
            i = t[0]
            if i in f0:
                continue
            if i in f1:
                lo += t[1]
                hi += t[1]
            else:
                lo += t[2]
                hi += t[3]
                free.append(t)
        if lo > rhs + EPS:
            return False
        if is_eq and hi < rhs - EPS:
            return False
        for i, _a, _amin, _amax, mag, v in free:
            if lo + mag > rhs + EPS:
                pass            # keep the value at min activity
            elif is_eq and hi - mag < rhs - EPS:
                v = 1 - v       # keep the value at max activity
            else:
                continue
            (f1 if v else f0).add(i)
            stack.append(i)


def node_propagate(
    bp: BinaryProgram,
    fs: FixState,
    settings: Settings,
    engine: Optional[_SymmetryEngine] = None,
    rows: Optional[_RowIndex] = None,
    branched: Optional[int] = None,
) -> bool:
    """Row propagation and symmetry propagation to a joint fixpoint.

    This is the solver's one fixpoint loop over propagators.  Each turn
    runs the row queue, then one pass over the symmetry units; the entries
    that pass fixes seed the next turn's row queue, and a pass that fixes
    nothing ends the loop.

    ``fs`` is extended in place; False when it is infeasible.  ``branched``
    says that ``fs`` is a row fixpoint plus the fixing of that one entry,
    as at a search child, so only the rows that fixing tightens are queued
    at first; without it every row is.  :func:`solve` passes its
    ``engine`` and ``rows``; without an engine, both come from bp's set-up
    record under bp's own labels.
    """
    if not fs.is_consistent():
        return False
    if engine is None:
        _work, _plan, rows, units = bp._setup.labeling(
            bp, "original", settings.mode)
        engine = _SymmetryEngine(units, settings.mode)
    wake = None if branched is None else (branched,)
    while True:
        if not _row_propagate(rows, fs, wake):
            return False
        if not engine.units:
            return True
        seen = fs.fixed0 | fs.fixed1
        if not engine.propagate(fs):
            return False
        if len(fs.fixed0) + len(fs.fixed1) == len(seen):
            return True
        wake = (fs.fixed0 | fs.fixed1) - seen


def solve(bp: BinaryProgram, settings: Settings = Settings()) -> SolveResult:
    """Depth-first search, branching lowest-index unfixed variable, 1 first.

    Raises ValueError when the mode uses the declared generators and one of
    them is not a symmetry of ``bp``: propagating it would cut off optimal
    solutions, so the reported optimum or infeasibility would be wrong.

    The set-up (generator check, relabeling, row index, symmetry units) is
    kept on ``bp``, which cannot change, so a repeated solve's
    ``wall_time`` leaves it out.
    """
    t0 = time.perf_counter()
    setup = bp._setup
    if settings.mode != "nosym":
        setup.check(bp)
    work, plan, rows, units = setup.labeling(bp, settings.relabel,
                                             settings.mode)
    engine = _SymmetryEngine(units, settings.mode)
    n = work.n
    gains = [(i, c) for i, c in enumerate(work.objective) if c > 0]
    best_obj: Optional[float] = None
    best_x: Optional[Tuple[int, ...]] = None
    nodes = 0
    timed_out = False
    # Each entry is a node and the entry it branched on (None at the root).
    stack: List[Tuple[FixState, Optional[int]]] = [(FixState(n), None)]
    while stack:
        if settings.time_limit is not None and \
                time.perf_counter() - t0 > settings.time_limit:
            timed_out = True
            break
        fs, branched = stack.pop()
        nodes += 1
        if not node_propagate(work, fs, settings, engine, rows, branched):
            continue
        f0, f1 = fs.fixed0, fs.fixed1
        if best_obj is not None:  # the bound only prunes against one
            bound = sum(work.objective[i] for i in f1) + \
                sum(c for i, c in gains if i not in f0 and i not in f1)
            if bound <= best_obj + EPS:
                continue
        # The parent branched on its lowest unfixed entry, so every entry
        # below a child's branching entry is fixed already.
        i = next((j for j in range(0 if branched is None else branched + 1, n)
                  if j not in f0 and j not in f1), None)
        if i is None:
            x = tuple(1 if j in f1 else 0 for j in range(n))
            if work.is_feasible(x):
                obj = work.objective_value(x)
                if best_obj is None or obj > best_obj + EPS:
                    best_obj = obj
                    best_x = x
            continue
        one = fs.copy()
        one.fixed1.add(i)
        fs.fixed0.add(i)         # the 0-child takes over the parent's state
        stack.append((fs, i))
        stack.append((one, i))   # popped first: 1-branch explored first
    wall = time.perf_counter() - t0
    if timed_out:
        status = "timelimit"
    elif best_obj is None:
        status = "infeasible"
    else:
        status = "optimal"
    incumbent = best_x
    if incumbent is not None and plan is not None:
        incumbent = plan.unmap_vector(incumbent)
    return SolveResult(
        status=status,
        objective=best_obj,
        incumbent=incumbent,
        nodes=nodes,
        sym_fixings=engine.sym_fixings,
        wall_time=wall,
        sym_time=engine.sym_time,
    )
