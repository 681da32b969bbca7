"""Minimal depth-first branch-and-bound with symmetry propagation hooks.

The solver is LP-free: bounding uses the sum of positive unfixed objective
coefficients, domain reduction uses min/max row activities, and symmetry
handling is pure node-local propagation in one of five modes (listed below).

:func:`node_propagate` holds the one fixpoint loop over propagators: each
turn runs the row queue, then one pass over the symmetry units, and stops
after a pass that fixes nothing.  Row propagation is event-driven.  A
per-solve index (:class:`_RowIndex`) maps each variable to the rows that
contain it, and a queue rechecks only rows one of whose variables was
fixed.  A search child differs from its parent's fixpoint by its branching
fixing alone, so its first queue starts from that variable's rows; a later
turn's queue starts from the rows of the entries the symmetry pass fixed.
The modes:

- ``nosym``  — no symmetry handling;
- ``gen``    — propagate each declared generator's constraint individually;
- ``group``  — propagate all (safeguard-capped) powers of each generator
  individually, to a joint fixpoint;
- ``nopeek`` — complete block propagation for ordered monotone generators
  without value peeking (power propagation as fallback);
- ``peek``   — like ``nopeek`` plus value peeking; the fallback peeks the
  entries whose values the propagation run looked up.

A relabeling strategy other than ``original`` transforms the whole instance
up front so generators become monotone/ordered and maps incumbents back.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import FixState, Permutation, group_elements, is_monotone_ordered
from .cyclic import CyclicSubgroup, RelabelPlan, propagate_ordered_monotone, relabel
from .imptree import PropagationResult, propagate_set

MODES = ("nosym", "gen", "group", "nopeek", "peek")
RELABELS = ("original", "max", "min", "respect")

EPS = 1e-9

ENV_MAX_PERMS = "CYCFIX_MAX_PERMS"
ENV_MAX_WEIGHT = "CYCFIX_MAX_WEIGHT"
DEFAULT_MAX_PERMS = 10**4
DEFAULT_MAX_WEIGHT = 5 * 10**6


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


@dataclass
class BinaryProgram:
    """max c^T x over binary x subject to rows; generators declare symmetry."""

    n: int
    objective: List[float]
    rows: List[Row]
    names: Optional[List[str]] = None
    generators: List[Permutation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.objective) != self.n:
            raise ValueError("objective length != n")
        if self.names is None:
            self.names = ["x%d" % (i + 1) for i in range(self.n)]
        if len(self.names) != self.n:
            raise ValueError("names length != n")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator ground set mismatch")

    def check_symmetry(self, perm: Permutation, tol: float = 1e-9) -> bool:
        """Algebraic invariance: objective constant on orbits, rows map to
        rows.  This implies the permutation maps feasible points to feasible
        points of equal objective."""
        return self._is_symmetry(perm, tol, self._row_keys())

    def check_generators(self, tol: float = 1e-9) -> None:
        """Raise ValueError naming the first declared generator (1-based)
        that :meth:`check_symmetry` rejects."""
        keys = self._row_keys() if self.generators else []
        for k, g in enumerate(self.generators, start=1):
            if not self._is_symmetry(g, tol, keys):
                raise ValueError(
                    "generator %d %r is not a symmetry of the program"
                    % (k, g))

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

    def _is_symmetry(self, perm: Permutation, tol: float,
                     keys: List[Tuple[tuple, Tuple[int, ...],
                                      Tuple[float, ...]]]) -> bool:
        img, obj = perm.image, self.objective
        for j, c in zip(img, obj):
            if abs(obj[j] - c) > tol:
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

    def is_feasible(self, x: Sequence[int], tol: float = 1e-6) -> bool:
        for row in self.rows:
            act = sum(a * x[i] for i, a in row.coeffs)
            if row.sense == "<=" and act > row.rhs + tol:
                return False
            if row.sense == "==" and abs(act - row.rhs) > tol:
                return False
        return True


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, raw))


@dataclass(frozen=True)
class Settings:
    mode: str = "nosym"
    relabel: str = "original"
    seed: int = 0
    time_limit: Optional[float] = None
    max_perms: Optional[int] = None
    max_weight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.relabel not in RELABELS:
            raise ValueError("unknown relabel strategy %r" % (self.relabel,))

    def perm_caps(self) -> Tuple[int, int]:
        mc = self.max_perms if self.max_perms is not None else \
            _env_int(ENV_MAX_PERMS, DEFAULT_MAX_PERMS)
        mw = self.max_weight if self.max_weight is not None else \
            _env_int(ENV_MAX_WEIGHT, DEFAULT_MAX_WEIGHT)
        return mc, mw


@dataclass
class SolveResult:
    status: str                      # optimal | infeasible | timelimit
    objective: Optional[float]
    incumbent: Optional[Tuple[int, ...]]
    nodes: int
    sym_fixings: int
    wall_time: float
    sym_time: float
    seed: int = 0


class _SymmetryEngine:
    """Per-solve precomputation of the symmetry propagation strategy."""

    def __init__(self, bp: BinaryProgram, settings: Settings):
        self.mode = settings.mode
        self.units: List[Tuple[str, object]] = []
        gens = [g for g in bp.generators if not g.is_identity()]
        if self.mode == "nosym" or not gens:
            return
        mc, mw = settings.perm_caps()
        if self.mode == "gen":
            self.units.append(("perms", gens))
        elif self.mode == "group":
            for g in gens:
                elems = group_elements(g, mc, mw)
                if elems:
                    self.units.append(("perms", elems))
        else:  # nopeek / peek
            for g in gens:
                if is_monotone_ordered(g) is not None:
                    self.units.append(
                        ("ordered", CyclicSubgroup.generated_by(g)))
                else:
                    elems = group_elements(g, mc, mw)
                    if elems:
                        self.units.append(("powers", elems))

    def propagate(self, fs: FixState, stats: Dict[str, float]) -> bool:
        """One pass over the symmetry units; False = infeasible.

        :func:`node_propagate` repeats the pass, with the rows in between,
        until a pass fixes nothing.
        """
        if not self.units:
            return True
        t0 = time.perf_counter()
        before = len(fs.fixed0) + len(fs.fixed1)
        try:
            for kind, unit in self.units:
                if kind == "perms":
                    res = propagate_set(unit, fs)
                elif kind == "ordered":
                    res = propagate_ordered_monotone(
                        unit, fs, compute_fixings=(self.mode == "peek"))
                else:  # powers fallback for nopeek/peek
                    res = self._powers(unit, fs)
                if not res.feasible:
                    return False
                assert res.fixed0 is not None and res.fixed1 is not None
                fs.fixed0 |= res.fixed0
                fs.fixed1 |= res.fixed1
            return True
        finally:
            stats["sym_fixings"] = stats.get("sym_fixings", 0) \
                + len(fs.fixed0) + len(fs.fixed1) - before
            stats["sym_time"] = stats.get("sym_time", 0.0) \
                + (time.perf_counter() - t0)

    def _powers(self, elems: List[Permutation],
                fs: FixState) -> PropagationResult:
        touched: Set[int] = set()
        res = propagate_set(elems, fs, touched=touched)
        if not res.feasible or self.mode == "nopeek":
            return res
        # Peeking fallback: single-value feasibility tests on the entries
        # whose values the propagation run looked up.
        j0, j1 = set(res.fixed0), set(res.fixed1)
        for i in sorted(touched):
            if i in j0 or i in j1:
                continue
            t0 = propagate_set(elems, FixState(fs.n, j0 | {i}, j1))
            if not t0.feasible:
                j1.add(i)
                continue
            t1 = propagate_set(elems, FixState(fs.n, j0, j1 | {i}))
            if not t1.feasible:
                j0.add(i)
        return PropagationResult.of(j0, j1)


class _RowIndex:
    """Per-solve row data for :func:`_row_propagate`.

    ``rows[r]`` is ``(terms, is_eq, rhs)`` where each term is
    ``(entry, coeff, min(coeff, 0), max(coeff, 0))``; ``watch[i]`` lists the
    rows whose terms contain entry i.
    """

    __slots__ = ("rows", "watch")

    def __init__(self, bp: BinaryProgram):
        self.rows: List[Tuple[tuple, bool, float]] = []
        self.watch: List[List[int]] = [[] for _ in range(bp.n)]
        for r, row in enumerate(bp.rows):
            self.rows.append((
                tuple((i, a, min(a, 0.0), max(a, 0.0)) for i, a in row.coeffs),
                row.sense == "==", row.rhs))
            for i, _a in row.coeffs:
                self.watch[i].append(r)


def _row_propagate(index: _RowIndex, fs: FixState,
                   wake: Optional[Iterable[int]] = None) -> bool:
    """Min/max-activity domain propagation; False when a row is violated.

    Event-driven: a queue holds the rows to (re)check, starting with the
    rows that contain an entry of ``wake`` (every row when ``wake`` is None).
    A row that fixes an entry queues that entry's rows again, itself
    included, so the loop ends at the same fixpoint as rescanning every row
    until a pass changes nothing: the rules only fire more as fixings grow.
    The caller may seed with just the entries fixed since the rows were
    last at a fixpoint.
    """
    rows, watch = index.rows, index.watch
    f0, f1 = fs.fixed0, fs.fixed1
    if wake is None:
        queue = list(range(len(rows) - 1, -1, -1))
    else:
        queue = sorted({r for i in wake for r in watch[i]}, reverse=True)
    queued = bytearray(len(rows))
    for r in queue:
        queued[r] = 1
    while queue:
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
        for i, a, amin, amax in free:
            for v in (0, 1):
                bad = lo - amin + a * v > rhs + EPS
                if not bad and is_eq:
                    bad = hi - amax + a * v < rhs - EPS
                if bad:
                    if i in (f0 if v == 0 else f1):
                        return False
                    if i not in f0 and i not in f1:
                        (f1 if v == 0 else f0).add(i)
                        for r2 in watch[i]:
                            if not queued[r2]:
                                queued[r2] = 1
                                queue.append(r2)
                    break
    return True


def node_propagate(
    bp: BinaryProgram,
    fixings: FixState,
    settings: Settings,
    engine: Optional[_SymmetryEngine] = None,
    stats: Optional[Dict[str, int]] = None,
    rows: Optional[_RowIndex] = None,
    branched: Optional[int] = None,
) -> PropagationResult:
    """Row propagation and symmetry propagation to a joint fixpoint.

    This is the solver's one fixpoint loop over propagators.  Each turn
    runs the row queue, then one pass over the symmetry units; the entries
    that pass fixes seed the next turn's row queue, and a pass that fixes
    nothing ends the loop.

    ``fixings`` is extended in place.  ``branched`` says that ``fixings`` is
    a row fixpoint plus the fixing of that one entry, as at a search child,
    so only that entry's rows are queued at first; without it every row is.
    """
    if not fixings.is_consistent():
        return PropagationResult.infeasible()
    if engine is None:
        engine = _SymmetryEngine(bp, settings)
    if stats is None:
        stats = {}
    if rows is None:
        rows = _RowIndex(bp)
    fs = fixings
    wake = None if branched is None else (branched,)
    while True:
        if not _row_propagate(rows, fs, wake):
            return PropagationResult.infeasible()
        if not engine.units:
            break
        seen = fs.fixed0 | fs.fixed1
        if not engine.propagate(fs, stats):
            return PropagationResult.infeasible()
        if len(fs.fixed0) + len(fs.fixed1) == len(seen):
            break
        wake = (fs.fixed0 | fs.fixed1) - seen
    return PropagationResult.of(fs.fixed0, fs.fixed1)


def _relabel_program(
    bp: BinaryProgram, strategy: str
) -> Tuple[BinaryProgram, Optional[RelabelPlan]]:
    gens = [g for g in bp.generators if not g.is_identity()]
    if strategy == "original" or not gens:
        return bp, None
    plan = relabel(gens, strategy)
    lab = plan.labeling
    objective = [0.0] * bp.n
    names = [""] * bp.n
    for i in range(bp.n):
        objective[lab.image[i]] = bp.objective[i]
        names[lab.image[i]] = bp.names[i]
    rows = [Row.make({lab.image[i]: a for i, a in r.coeffs}, r.sense, r.rhs)
            for r in bp.rows]
    new_gens = [plan.apply_to(g) for g in bp.generators]
    return BinaryProgram(bp.n, objective, rows, names, new_gens), plan


def solve(bp: BinaryProgram, settings: Settings = Settings()) -> SolveResult:
    """Depth-first search, branching lowest-index unfixed variable, 1 first.

    Raises ValueError when the mode uses the declared generators and one of
    them is not a symmetry of ``bp``: propagating it would cut off optimal
    solutions, so the reported optimum or infeasibility would be wrong.
    """
    t0 = time.perf_counter()
    if settings.mode != "nosym":
        bp.check_generators()
    work, plan = _relabel_program(bp, settings.relabel)
    engine = _SymmetryEngine(work, settings)
    rows = _RowIndex(work)
    stats: Dict[str, float] = {"sym_fixings": 0}
    n = work.n
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
        res = node_propagate(work, fs, settings, engine, stats, rows, branched)
        if not res.feasible:
            continue
        f0, f1 = fs.fixed0, fs.fixed1
        bound = sum(work.objective[i] for i in f1) + \
            sum(c for i, c in enumerate(work.objective)
                if c > 0 and i not in f0 and i not in f1)
        if best_obj is not None and bound <= best_obj + EPS:
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
        zero = fs.copy()
        zero.fixed0.add(i)
        one = fs.copy()
        one.fixed1.add(i)
        stack.append((zero, i))
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
        sym_fixings=int(stats.get("sym_fixings", 0)),
        wall_time=wall,
        sym_time=float(stats.get("sym_time", 0.0)),
        seed=settings.seed,
    )
