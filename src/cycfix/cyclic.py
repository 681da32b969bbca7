"""Complete propagation for cyclic groups with monotone generators.

:func:`propagate_ordered_monotone` handles a generator composed of ordered
monotone subcycles: it processes the blocks left to right, drives each
block to per-permutation completeness, peeks its undecided entries, and
shrinks the acting subgroup through stabilizer filtering.  A group
generated by a single monotone cycle (or a subgroup of one) is the case of
one block; :func:`complete_fix_monotone_group` checks that shape and runs
the same code, the block loop :func:`_propagate_ordered`.  Each block
first asks :func:`fixes_nothing` whether both fills of the fixings certify
the rest of the pass, which then stops; a peek reruns the loop from its
block as a refutation only when no lex-leader completion certifies it.
The lex-leader test is :meth:`CyclicSubgroup.leads`, exact under the
acting subgroup, which sees each element as a rotation of the vector's
tuple on each block and builds no permutation.  The loop extends one
:class:`FixState` in place and returns False when it is infeasible; a peek
is added to it and taken back, and only a refutation copies it.  The
public entries copy their argument.

A monotone cycle visits its support in sorted order, so its entries behave
like a rotation of the induced positions; positions outside the support
never influence a lexicographic comparison of x and g(x) and are simply
carried along.

Every subgroup of <g> is the powers g^e with e a multiple of a divisor
``step`` of g's order, so a :class:`CyclicSubgroup` is (generator, step).
One :class:`_Generator` record, shared by every subgroup derived from g,
holds g's cycles, order and ordered blocks, read from the permutation's one
cycle scan (a single monotone cycle is the case of one block), and the
block restrictions and element tuples built so far; an element is the power
``g ** e``.  Stabilizers and restrictions compute a new step, and so does
``leads`` from block to block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .core import (FixState, Permutation, PropagationResult,
                   is_monotone_ordered)
from .imptree import propagate_set


class UnsupportedGroupError(ValueError):
    """The generator does not have the structure the algorithm needs."""


class _Generator:
    """What every subgroup of one generator shares, computed once.  Only
    the subgroups derived from it refer to it, so it lives as long as the
    symmetry units that hold them: those in a program's set-up record
    live as long as the program; there is no global cache."""

    __slots__ = ("perm", "n", "cycles", "ord", "cycle_of", "decomp",
                 "picks", "restrictions", "elements")

    def __init__(self, perm: Permutation):
        cycles = perm.cycles0()
        self.perm, self.n, self.cycles = perm, perm.n, cycles
        self.ord = perm.order()
        self.cycle_of = {a: k for k, c in enumerate(cycles) for a in c}
        self.decomp = decomp = is_monotone_ordered(perm)
        # Per block: a getter of a vector's entries on it, and its length.
        self.picks = None if decomp is None else tuple(
            (itemgetter(*b), len(b)) for b in decomp.blocks)
        self.restrictions: Dict[FrozenSet[int], _Generator] = {}
        self.elements: Dict[int, Tuple[Permutation, ...]] = {}  # by step


class CyclicSubgroup:
    """The powers g^e of a generator g with e a multiple of ``step``, a
    divisor of g's order (``step`` equal to the order: trivial subgroup).

    Explicit ``exponents`` must, with 0 and taken mod the order, form a
    subgroup, else ``ValueError``.  Derived subgroups share the generator's
    :class:`_Generator` record and differ only in their step.
    """

    __slots__ = ("_gen", "step")

    def __init__(self, generator: Permutation,
                 exponents: Optional[Iterable[int]] = None):
        gen = _Generator(generator)
        step = 1
        if exponents is not None:
            exps = {e % gen.ord for e in exponents} - {0}
            step = gcd(gen.ord, *exps)
            if exps != set(range(step, gen.ord, step)):
                raise ValueError("exponents %r (mod %d) are not a subgroup"
                                 % (sorted(exps), gen.ord))
        self._gen, self.step = gen, step

    @classmethod
    def _of(cls, gen: _Generator, step: int) -> "CyclicSubgroup":
        sub = cls.__new__(cls)
        sub._gen, sub.step = gen, step
        return sub

    @classmethod
    def generated_by(cls, gen: Permutation) -> "CyclicSubgroup":
        return cls(gen)

    @property
    def generator(self) -> Permutation:
        return self._gen.perm

    @property
    def n(self) -> int:
        return self._gen.n

    @property
    def exponents(self) -> Tuple[int, ...]:
        """The non-identity elements as powers of the generator."""
        return tuple(range(self.step, self._gen.ord, self.step))

    def is_trivial(self) -> bool:
        return self.step == self._gen.ord

    def elements(self) -> Tuple[Permutation, ...]:
        """Distinct non-identity elements, in exponent order, built on the
        first call for this step and shared by every later one."""
        gen, step = self._gen, self.step
        elems = gen.elements.get(step)
        if elems is None:
            elems = gen.elements[step] = tuple(
                gen.perm ** e for e in range(step, gen.ord, step))
        return elems

    def stab_pointwise(self, indices: Iterable[int]) -> "CyclicSubgroup":
        """g^e fixes a cycle's entries iff the cycle's length divides e."""
        gen, step = self._gen, self.step
        for k in {gen.cycle_of[i] for i in indices if i in gen.cycle_of}:
            step = lcm(step, len(gen.cycles[k]))
        return CyclicSubgroup._of(gen, step)

    def stab_setwise_pair(
        self, a: Iterable[int], b: Iterable[int]
    ) -> "CyclicSubgroup":
        """g^e keeps a and b in place iff, on each cycle meeting them, e is
        a multiple of the rotation period of the (in a, in b) pattern."""
        gen, step = self._gen, self.step
        sa, sb = set(a), set(b)
        for k in {gen.cycle_of[i] for i in sa | sb if i in gen.cycle_of}:
            pattern = [(i in sa, i in sb) for i in gen.cycles[k]]
            size = len(pattern)
            step = lcm(step, next(
                p for p in range(1, size + 1) if size % p == 0
                and pattern[p:] + pattern[:p] == pattern))
        return CyclicSubgroup._of(gen, step)

    def restrict_to_block(self, block: Iterable[int]) -> "CyclicSubgroup":
        """Elements restricted to an invariant block (identity elsewhere)."""
        key = frozenset(block)
        sub = self._gen.restrictions.get(key)
        if sub is None:  # restrict raises InvalidRestrictionError
            sub = self._gen.restrictions[key] = _Generator(
                self._gen.perm.restrict(key))
        return CyclicSubgroup._of(sub, gcd(self.step, sub.ord))

    def leads(self, x: Sequence[int], first: int = 0) -> bool:
        """x >=_lex h(x) for every element h, given that every element
        leaves x's entries before block ``first`` (0-based) in place; at
        ``first`` = 0, whether x is a lex-leader under the subgroup.

        Needs an ordered generator.  On a block with sorted positions
        p_0 < ... < p_{L-1}, g^e(x)[p_k] = x[p_{(k-e) mod L}]: with t the
        tuple of x there, g^e(x) is ``t[-e:] + t[:-e]``.  The blocks are
        disjoint position intervals in order, so the first block on which
        an element changes x decides its comparison.  Of the elements left
        (the multiples of ``step``), those with e = r, 2r, ... (mod L),
        r = gcd(step, L), give every rotation of t the block sees: one
        greater than t fails, and the first one equal to t is the pattern's
        period q (L without one).  The elements that change x on no block
        so far are the multiples of lcm(step, q).  No Permutation is built.
        """
        gen, step = self._gen, self.step
        if gen.picks is None:
            raise UnsupportedGroupError(
                "generator is not an ordered composition of monotone cycles")
        order = gen.ord
        for pick, size in gen.picks[first:]:
            if step == order:
                break
            t = pick(x)
            r = gcd(step, size)
            for e in range(r, size, r):
                u = t[-e:] + t[:-e]
                if u != t:
                    if u > t:
                        return False
                else:
                    break
            else:
                e = size
            step = lcm(step, e)
        return True

    def __repr__(self) -> str:
        return "CyclicSubgroup(%r, step=%d)" % (self.generator, self.step)


# -- monotone single-cycle groups -------------------------------------------


def _monotone_support(group: CyclicSubgroup) -> Tuple[int, ...]:
    """Sorted support of a generator that is one monotone cycle (each
    support entry maps to the next larger one, the largest to the smallest):
    the generator's decomposition then has exactly one block.
    """
    decomp = group._gen.decomp
    if decomp is None or len(decomp.blocks) != 1:
        raise UnsupportedGroupError(
            "generator is not a single monotone cycle: %r" % (group.generator,))
    return decomp.blocks[0]


def strict_witness(
    group: CyclicSubgroup, fixed0: Set[int], fixed1: Set[int]
) -> Tuple[int, ...]:
    """A vector strictly lex-greater than each of its non-identity images.

    Valid on feasible per-permutation-complete states with at least one
    unfixed support entry.  Two constructions, split on whether the first
    unfixed support position falls in the lower or upper half of the
    support: lower half additionally sets that position to one.
    """
    support = _monotone_support(group)
    ihat_rank = next((r for r, i in enumerate(support)
                      if i not in fixed0 and i not in fixed1), None)
    if ihat_rank is None:
        raise ValueError("strict witness needs an unfixed support entry")
    x = [0] * group.n
    for i in fixed1:
        x[i] = 1
    if (ihat_rank + 1) * 2 <= len(support):  # 1-based rank <= half the support
        x[support[ihat_rank]] = 1
    return tuple(x)


def complete_fix_monotone_group(
    group: CyclicSubgroup, fixings: FixState
) -> PropagationResult:
    """Maximal fixing sets for lex-leaders under a monotone cyclic group.

    A single monotone cycle is an ordered generator with one block, so this
    is :func:`propagate_ordered_monotone` once the generator is checked.
    """
    _monotone_support(group)
    return propagate_ordered_monotone(group, fixings)


def group_feasible_monotone(group: CyclicSubgroup, fixings: FixState) -> bool:
    """Group-level feasibility on a per-permutation-complete state.

    The group-constrained set is nonempty exactly when every single
    element's constraint is individually satisfiable, which per-permutation
    propagation decides.
    """
    _monotone_support(group)
    elems = group.elements()
    if not elems:
        return fixings.is_consistent()
    return propagate_set(elems, fixings).feasible


# -- ordered monotone subcycles ---------------------------------------------


def propagate_ordered_monotone(
    group: CyclicSubgroup,
    fixings: FixState,
    compute_fixings: bool = True,
) -> PropagationResult:
    """Block-wise complete propagation for ordered monotone generators.

    Blocks are processed left to right.  A block first ends the pass when
    :func:`fixes_nothing` certifies the fixings under the acting subgroup
    (:meth:`CyclicSubgroup.leads` from this block).  Otherwise the
    restricted subgroup's constraints are driven to per-permutation
    completeness; with ``compute_fixings`` the remaining block entries are
    peeked under the same lex-leader test, and a peek that no completion
    certifies is refuted or not by a feasibility-only run of the block
    loop that inherits the current subgroup and block position.
    Afterwards the acting subgroup shrinks to the setwise stabilizer of
    the block's fixing classes (block fully fixed) or the pointwise
    stabilizer of the block.

    Even with ``compute_fixings`` false the per-permutation-complete sets
    are returned: they are valid fixings regardless, and callers that only
    want the feasibility verdict can ignore them.  ``fixings`` is left as
    it was.
    """
    if group._gen.decomp is None:
        raise UnsupportedGroupError(
            "generator is not an ordered composition of monotone cycles")
    fs = fixings.copy()
    if fs.is_consistent() and _propagate_ordered(group, fs, 0,
                                                 compute_fixings):
        return PropagationResult.of(fs.fixed0, fs.fixed1)
    return PropagationResult.infeasible()


def _propagate_ordered(group: CyclicSubgroup, fs: FixState, first: int,
                       compute_fixings: bool) -> bool:
    """The block loop from block ``first`` (0-based) on consistent fixings:
    extends ``fs`` in place, False when infeasible."""
    blocks = group._gen.decomp.blocks
    f0, f1 = fs.fixed0, fs.fixed1
    delta = group
    for c in range(first, len(blocks)):
        if delta.is_trivial():
            break  # later blocks have no elements, so they fix nothing
        # Every element of delta leaves the blocks before c in place on the
        # completions of the fixings, so ``leads`` is exactly "a lex-leader
        # under delta".  When both fills of the fixings pass, every free
        # entry takes both values, so nothing here or later is fixed or
        # refuted.
        leads = lambda x: delta.leads(x, c)  # noqa: E731
        if fixes_nothing(leads, fs):
            break
        block = blocks[c]
        elems = delta.restrict_to_block(block).elements()
        if elems:
            res = propagate_set(elems, fs)
            if not res.feasible:
                return False
            f0 |= res.fixed0
            f1 |= res.fixed1
        free = [i for i in block if i not in f0 and i not in f1]
        if compute_fixings and free:
            # Peek each free entry at 0, then 1.  A peek that the last
            # lex-leader completion, or the completion with it, agrees with
            # is feasible; any other goes to a refutation run from block c
            # on a copy.  Refuted, it fixes the other value; wit stays valid.
            wit = lex_leader_completion(leads, fs)
            for i in free:
                for v, peeked in ((0, f0), (1, f1)):
                    if wit is not None and wit[i] == v:
                        continue
                    peeked.add(i)
                    x = lex_leader_completion(leads, fs)
                    refuted = x is None and not _propagate_ordered(
                        delta, fs.copy(), c, False)
                    peeked.discard(i)
                    if x is not None:
                        wit = x
                    elif refuted:
                        (f1 if v == 0 else f0).add(i)
                        break
        if all(i in f0 or i in f1 for i in block):
            delta = delta.stab_setwise_pair(f0 & set(block), f1 & set(block))
        else:
            delta = delta.stab_pointwise(block)
    return True


def _fill(fs: FixState, value: int) -> List[int]:
    """The fixings with every free entry set to ``value``."""
    x = [value] * fs.n
    for i in fs.fixed0:
        x[i] = 0
    for i in fs.fixed1:
        x[i] = 1
    return x


def lex_leader_completion(leads: Callable[[List[int]], bool],
                          fs: FixState) -> Optional[List[int]]:
    """The fixings with every free entry 0, else with every free entry 1:
    the first of the two that ``leads`` accepts, or None.  ``leads`` is a
    lex-leader test under the symmetries being propagated, so such an x is
    a member of the constrained set, and no sound propagation refutes a
    peek that agrees with it."""
    for fill in (0, 1):
        x = _fill(fs, fill)
        if leads(x):
            return x
    return None


def fixes_nothing(leads: Callable[[List[int]], bool], fs: FixState) -> bool:
    """True when both fills of consistent fixings, every free entry 0 and
    every free entry 1, pass the lex-leader test ``leads``.  Then every
    free entry takes both values in the constrained set, so no sound
    propagation fixes an entry or finds the fixings infeasible."""
    return fs.fixed0.isdisjoint(fs.fixed1) \
        and leads(_fill(fs, 0)) and leads(_fill(fs, 1))


def _is_lex_leader(x: List[int], elems: Sequence[Permutation]) -> bool:
    """x >=_lex g(x) for every g in ``elems``: the test of a unit of
    explicit permutations."""
    for g in elems:
        for k in g.support():  # g(x)[k] = x[g.inv[k]], x[k] elsewhere
            if x[k] != x[g.inv[k]]:
                if x[k] < x[g.inv[k]]:
                    return False
                break
    return True


# -- relabeling heuristics ---------------------------------------------------


@dataclass(frozen=True)
class RelabelPlan:
    """A bijection of positions making selected generators monotone/ordered.

    ``labeling`` maps an original position to its new position; applying the
    plan to a permutation g yields labeling ∘ g ∘ labeling⁻¹.
    """

    labeling: Permutation

    def apply_to(self, perm: Permutation) -> Permutation:
        return self.labeling.compose(perm).compose(self.labeling.inverse())

    def unmap_vector(self, x: Sequence[int]) -> Tuple[int, ...]:
        return self.labeling.inverse().apply(x)


def relabel(
    generators: Sequence[Permutation],
    strategy: str = "respect",
) -> RelabelPlan:
    """Choose new position labels so generators become monotone and ordered.

    Generators are visited in input order; one whose support overlaps
    already-relabeled positions is skipped.  For a processed generator the
    subcycles are ordered by the chosen strategy — ``max``: decreasing
    length, ``min``: increasing length, ``respect``: increasing smallest
    original position — and each subcycle receives consecutive new labels
    following the cycle from its smallest member.  Leftover positions keep
    their relative order at the end.
    """
    if not generators:
        raise ValueError("relabel needs at least one generator")
    if strategy not in ("max", "min", "respect"):
        raise ValueError("unknown strategy %r" % (strategy,))
    n = generators[0].n
    new_of: Dict[int, int] = {}
    next_label = 0
    for gen in generators:
        support = set(gen.support())
        if not support or support & set(new_of):
            continue
        cycles0 = gen.cycles0()  # sorted by smallest entry: ``respect``
        if strategy != "respect":
            cycles0 = sorted(cycles0, key=len, reverse=strategy == "max")
        for cyc in cycles0:  # each cycle starts at its smallest member
            for a in cyc:
                new_of[a] = next_label
                next_label += 1
    for i in range(n):
        if i not in new_of:
            new_of[i] = next_label
            next_label += 1
    return RelabelPlan(Permutation([new_of[i] for i in range(n)]))
