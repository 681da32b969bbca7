"""Brute-force ground truth by exhaustive enumeration.

Deliberately naive: every answer is obtained by enumerating bit vectors and
checking the defining conditions literally.  The propagation modules are
tested against this module, so nothing here may share code with them beyond
the basic types of :mod:`cycfix.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Sequence, Tuple

from .core import FixState, Permutation, PropagationResult

DEFAULT_CAP = 25


class CapacityError(ValueError):
    """Too many unfixed entries for exhaustive enumeration."""


@dataclass
class EnumeratedSet:
    """Explicit list of feasible bit vectors on n entries."""

    n: int
    vectors: List[Tuple[int, ...]]


def _check_cap(fixings: FixState, cap: int) -> List[int]:
    free = fixings.unfixed()
    if len(free) > cap:
        raise CapacityError(
            "%d unfixed entries exceed enumeration cap %d" % (len(free), cap)
        )
    return free


def enumerate_feasible(
    perms: Sequence[Permutation],
    fixings: FixState,
    cap: int = DEFAULT_CAP,
) -> EnumeratedSet:
    """All x in F(fixed0, fixed1) with x >=_lex g(x) for every g in perms."""
    n = fixings.n
    free = _check_cap(fixings, cap)
    if not fixings.is_consistent():
        return EnumeratedSet(n, [])
    base = [0] * n
    for i in fixings.fixed1:
        base[i] = 1
    out: List[Tuple[int, ...]] = []
    for bits in product((0, 1), repeat=len(free)):
        for i, b in zip(free, bits):
            base[i] = b
        x = tuple(base)
        # Tuple comparison is exactly the lexicographic order on bits.
        if all(x >= g.apply(x) for g in perms):
            out.append(x)
    return EnumeratedSet(n, out)


def _fixings_of(vectors: List[Tuple[int, ...]], n: int) -> PropagationResult:
    if not vectors:
        return PropagationResult.infeasible()
    fixed0 = set(range(n))
    fixed1 = set(range(n))
    for x in vectors:
        for i, b in enumerate(x):
            (fixed1 if b == 0 else fixed0).discard(i)
    return PropagationResult.of(fixed0, fixed1)


def complete_fixings_oracle(
    perms: Sequence[Permutation],
    fixings: FixState,
    cap: int = DEFAULT_CAP,
) -> PropagationResult:
    """The unique maximal fixing sets: entries constant across the set."""
    enum = enumerate_feasible(perms, fixings, cap)
    return _fixings_of(enum.vectors, fixings.n)


def per_perm_fixpoint_oracle(
    perms: Sequence[Permutation],
    fixings: FixState,
    cap: int = DEFAULT_CAP,
) -> PropagationResult:
    """Iterate single-permutation complete fixings until nothing changes.

    This is the specification target of the implication-tree propagator:
    each permutation is handled in isolation (by enumeration), derived
    fixings feed back in, and the loop runs to its fixpoint.
    """
    state = fixings.copy()
    if not state.is_consistent():
        return PropagationResult.infeasible()
    changed = True
    while changed:
        changed = False
        for g in perms:
            res = complete_fixings_oracle([g], state, cap)
            if not res.feasible:
                return PropagationResult.infeasible()
            assert res.fixed0 is not None and res.fixed1 is not None
            if res.fixed0 != state.fixed0 or res.fixed1 != state.fixed1:
                state = FixState(state.n, res.fixed0, res.fixed1)
                changed = True
    return PropagationResult.of(state.fixed0, state.fixed1)


def is_lex_leader(x: Sequence[int], perms: Sequence[Permutation]) -> bool:
    """True iff x >=_lex g(x) for every given permutation."""
    t = tuple(x)
    return all(t >= g.apply(t) for g in perms)
