"""Per-permutation lexicographic fixing propagation (public surface).

The event machinery lives in the kernel module :mod:`cycfix._kernels`; this
module wraps it with :class:`FixState` arguments and result objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import _kernels as _kern
from .core import FixState, Permutation

KERNEL_IMPLEMENTATION = _kern.__name__

# Re-exported kernel names; tests and the solver drive events through these.
ROOT = _kern.ROOT
CONDITIONAL = _kern.CONDITIONAL
NECESSARY = _kern.NECESSARY
LOOSE_END = _kern.LOOSE_END
InternalLogicError = _kern.InternalLogicError
ImplicationTree = _kern.ImplicationTree
PermPropState = _kern.PermPropState
FixScheduler = _kern.FixScheduler
first_conditional_ancestor = _kern.first_conditional_ancestor
check_tree_invariants = _kern.check_tree_invariants


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of a propagation run; fixing sets present iff feasible."""

    feasible: bool
    fixed0: Optional[FrozenSet[int]] = None
    fixed1: Optional[FrozenSet[int]] = None

    @classmethod
    def infeasible(cls) -> "PropagationResult":
        return cls(False)

    @classmethod
    def of(cls, fixed0: Iterable[int], fixed1: Iterable[int]) -> "PropagationResult":
        return cls(True, frozenset(fixed0), frozenset(fixed1))

    def as_fixstate(self, n: int) -> FixState:
        if not self.feasible:
            raise ValueError("no fixing sets on an infeasible result")
        return FixState(n, self.fixed0, self.fixed1)


def init_state(perm: Permutation, fixings: FixState) -> "PermPropState":
    """Fresh single-permutation state: horizon 1, two-vertex tree."""
    return _kern.init_state(perm)


def h_value(state, fixings: FixState, entry: int, loose) -> Optional[int]:
    return _kern.h_value(state, fixings.fixed0, fixings.fixed1, entry, loose)


def index_increase_event(state, fixings: FixState, scheduler) -> None:
    _kern.index_increase_event(
        state, fixings.fixed0, fixings.fixed1, scheduler)


def variable_fixing_event(state, fixings_after: FixState, fixing, scheduler) -> None:
    entry, value = fixing
    _kern.variable_fixing_event(
        state, fixings_after.fixed0, fixings_after.fixed1,
        entry, value, scheduler)


def completeness_check(state, fixings: FixState) -> bool:
    return _kern.completeness_check(state, fixings.fixed0, fixings.fixed1)


def propagate_set(
    perms: Sequence[Permutation],
    fixings: FixState,
    check_invariants: bool = False,
    touched: Optional[Set[int]] = None,
) -> PropagationResult:
    """Compute the combined per-permutation-complete fixing sets.

    For every permutation g the constraint is x >=_lex g(x); the result is
    the fixpoint of applying each permutation's complete fixings in turn.
    Identity permutations are rejected: their constraint is vacuous and a
    caller passing one is confused.
    """
    if not perms:
        raise ValueError("propagate_set needs at least one permutation")
    n = fixings.n
    for g in perms:
        if g.n != n:
            raise ValueError("permutation ground set %d != %d" % (g.n, n))
        if g.is_identity():
            raise ValueError("identity permutation is not a constraint")
    return propagate_set_with_states(
        perms, fixings, check_invariants, touched)[0]


def propagate_set_with_states(
    perms: Sequence[Permutation],
    fixings: FixState,
    check_invariants: bool = False,
    touched: Optional[Set[int]] = None,
) -> Tuple[PropagationResult, List]:
    """Like propagate_set, without its input checks, but also returns the
    final per-permutation states.

    Test hook: lets tests inspect final trees, horizons and vertex counters.
    """
    feasible, fix0, fix1, states = _kern.propagate_set_raw(
        perms, set(fixings.fixed0), set(fixings.fixed1), fixings.n,
        check_invariants=check_invariants, touched=touched)
    if not feasible:
        return PropagationResult.infeasible(), states
    return PropagationResult.of(fix0, fix1), states


def tree_shape(tree) -> list:
    """Nested-list rendering of a tree for shape assertions in tests.

    Each vertex becomes ``[label, children...]`` where label is "root",
    "loose", or "cond(e,b)" / "necc(e,b)" with a 1-based entry.
    """

    def render(v):
        if v.kind == ROOT:
            label = "root"
        elif v.kind == LOOSE_END:
            label = "loose"
        else:
            kind = "cond" if v.kind == CONDITIONAL else "necc"
            label = "%s(%d,%d)" % (kind, v.entry + 1, v.value)
        return [label] + [render(c) for c in v.children]

    return render(tree.root)
