"""Permutation arithmetic, monotone-cycle tests, fixing-set bookkeeping and
the result type of the propagation entries.

All indices in this module are 0-based except for cycle notation:
:meth:`Permutation.from_cycles` and :meth:`Permutation.cycles` speak the usual
1-based mathematical notation ``(1,2,3)`` so that instances written in cycle
form read naturally; :meth:`Permutation.cycles0` is the same list in 0-based
labels, and the one cycle scan of a permutation.  Everything else — fixing sets, vectors, supports,
blocks — uses 0-based positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import (FrozenSet, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)


class DimensionError(ValueError):
    """Raised when two objects live on different ground sets."""


class InvalidPermutationError(ValueError):
    """Raised when an image array or cycle list is not a bijection."""


class InvalidRestrictionError(ValueError):
    """Raised when restricting a permutation to a non-invariant index set."""


class Permutation:
    """A bijection of {0, ..., n-1} stored as image and inverse-image arrays.

    Both arrays are kept so that a preimage lookup ``inv[i]`` is O(1); the
    propagation engine looks up preimages on every index-increase event.
    """

    __slots__ = ("n", "image", "inv", "_identity", "_support", "_cycles0")

    def __init__(self, image: Sequence[int]):
        img = tuple(image)
        n = len(img)
        seen = [False] * n
        for v in img:  # type(): a bool is an int, but no image entry
            if type(v) is not int or v < 0 or v >= n or seen[v]:
                raise InvalidPermutationError(
                    "image array of length %d is not a bijection: %r" % (n, img)
                )
            seen[v] = True
        inv = [0] * n
        for i, v in enumerate(img):
            inv[v] = i
        self.n = n
        self.image = img
        self.inv = tuple(inv)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation of {0..n-1} from 1-based cycle notation.

        ``from_cycles(3, [(1, 2, 3)])`` maps 1->2, 2->3, 3->1 in 1-based terms.
        """
        image = list(range(n))
        touched: Set[int] = set()
        for cyc in cycles:
            for a in cyc:
                if isinstance(a, bool) or not 1 <= a <= n:
                    raise InvalidPermutationError(
                        "cycle entry %r outside 1..%d" % (a, n)
                    )
                if a in touched:
                    raise InvalidPermutationError(
                        "cycle entry %r appears twice" % (a,)
                    )
                touched.add(a)
            for i, a in enumerate(cyc):
                b = cyc[(i + 1) % len(cyc)]
                image[a - 1] = b - 1
        return cls(image)

    # -- views -------------------------------------------------------------

    def cycles0(self) -> Tuple[Tuple[int, ...], ...]:
        """Cycle form in 0-based labels; fixed points omitted.  Computed on
        the first call: the order, the powers and the cyclic layer's
        stabilizers and blocks all read it.

        Canonical: each cycle starts at its smallest entry, cycles sorted by
        that entry, so the round trip through ``from_cycles`` is stable.
        """
        try:
            return self._cycles0
        except AttributeError:
            pass
        image, out = self.image, []
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start] or image[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            cur = image[start]
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                cur = image[cur]
            out.append(tuple(cyc))
        self._cycles0 = tuple(out)
        return self._cycles0

    def cycles(self) -> List[Tuple[int, ...]]:
        """:meth:`cycles0` in 1-based notation, as ``from_cycles`` reads it."""
        return [tuple(a + 1 for a in c) for c in self.cycles0()]

    def support(self) -> Tuple[int, ...]:
        """Sorted 0-based indices moved by the permutation, computed on the
        first call: the lex-leader check scans them on every peek."""
        try:
            return self._support
        except AttributeError:
            self._support = tuple(
                i for i, v in enumerate(self.image) if i != v)
            return self._support

    def is_identity(self) -> bool:
        # Filled on the first call: set-up builds many permutations that
        # never ask, and the kernel's input check asks on every call.
        try:
            return self._identity
        except AttributeError:
            self._identity = self.image == tuple(range(self.n))
            return self._identity

    # -- group operations --------------------------------------------------

    def __call__(self, i: int) -> int:
        return self.image[i]

    def inverse(self) -> "Permutation":
        return Permutation(self.inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self ∘ other: first apply ``other``, then ``self``."""
        if self.n != other.n:
            raise DimensionError(
                "compose: sizes differ (%d vs %d)" % (self.n, other.n)
            )
        return Permutation([self.image[other.image[i]] for i in range(self.n)])

    def __pow__(self, e: int) -> "Permutation":
        """self^e for any integer e: each cycle rotated by e mod its length."""
        image = list(range(self.n))
        for c in self.cycles0():
            r = e % len(c)
            for a, b in zip(c, c[r:] + c[:r]):
                image[a] = b
        return Permutation(image)

    def order(self) -> int:
        """Smallest t >= 1 with perm^t = identity (lcm of cycle lengths)."""
        return lcm(*map(len, self.cycles0()))

    def apply(self, x: Sequence[int]) -> Tuple[int, ...]:
        """Permute coordinates: result[i] = x[inv(i)]."""
        if len(x) != self.n:
            raise DimensionError(
                "apply: vector length %d != n=%d" % (len(x), self.n)
            )
        return tuple(x[self.inv[i]] for i in range(self.n))

    def restrict(self, indices: Iterable[int]) -> "Permutation":
        """Restriction to an invariant index set; identity elsewhere."""
        block = set(indices)
        image = list(range(self.n))
        for i in block:
            j = self.image[i]
            if j not in block:
                raise InvalidRestrictionError(
                    "index set is not invariant: %d maps outside" % (i,)
                )
            image[i] = j
        return Permutation(image)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Permutation.identity(%d)" % self.n
        body = "".join("(%s)" % ",".join(map(str, c)) for c in cyc)
        return "Permutation[n=%d]%s" % (self.n, body)


MAX_POWERS = 10**4          # group_elements' safeguard caps
MAX_POWER_WEIGHT = 5 * 10**6


def group_elements(gen: Permutation) -> List[Permutation]:
    """Materialize the powers gen^1 .. gen^k, identity excluded.

    k is maximal with k <= order-1, k <= MAX_POWERS and |supp(gen)| * k
    <= MAX_POWER_WEIGHT.
    """
    s = len(gen.support())
    if s == 0:
        return []
    k = min(gen.order() - 1, MAX_POWERS, MAX_POWER_WEIGHT // s)
    return [gen ** e for e in range(1, k + 1)]


def is_monotone(cycle: Sequence[int]) -> bool:
    """True iff the cycle has exactly one descent (one entry mapped lower).

    The cycle may be written starting anywhere and in either 0- or 1-based
    labels; only relative order matters.
    """
    k = len(cycle)
    if k < 2:
        return True
    descents = sum(1 for i in range(k) if cycle[(i + 1) % k] < cycle[i])
    return descents == 1


class SubcycleDecomposition(NamedTuple):
    """Ordered monotone subcycles: blocks of 0-based supports, increasing."""

    blocks: Tuple[Tuple[int, ...], ...]  # sorted support of each subcycle


def is_monotone_ordered(perm: Permutation) -> Optional[SubcycleDecomposition]:
    """Decompose into ordered monotone subcycles, or None if impossible.

    Ordered means the supports are order-separated: every entry of block i is
    smaller than every entry of block i+1.  Fixed points may fall anywhere;
    they never influence a lexicographic comparison of x and perm(x).
    """
    cycles = perm.cycles0()  # sorted by smallest entry
    if not all(map(is_monotone, cycles)):
        return None
    for a, b in zip(cycles, cycles[1:]):
        if max(a) >= min(b):
            return None
    return SubcycleDecomposition(tuple(tuple(sorted(c)) for c in cycles))


class FixState:
    """Disjoint sets of entries fixed to 0 and to 1 (0-based).

    Mutable and single-owner; copy before handing to a propagation run that
    should not see later changes.
    """

    __slots__ = ("n", "fixed0", "fixed1")

    def __init__(
        self,
        n: int,
        fixed0: Iterable[int] = (),
        fixed1: Iterable[int] = (),
    ):
        f0 = set(fixed0)
        f1 = set(fixed1)
        for i in f0 | f1:
            if not 0 <= i < n:
                raise ValueError("fixed entry %d outside 0..%d" % (i, n - 1))
        self.n = n
        self.fixed0 = f0
        self.fixed1 = f1

    def is_consistent(self) -> bool:
        return not (self.fixed0 & self.fixed1)

    def value(self, i: int) -> Optional[int]:
        if i in self.fixed0:
            return 0
        if i in self.fixed1:
            return 1
        return None

    def is_fixed(self, i: int) -> bool:
        return i in self.fixed0 or i in self.fixed1

    def unfixed(self) -> List[int]:
        return [i for i in range(self.n) if not self.is_fixed(i)]

    def copy(self) -> "FixState":
        # No range check: a copy holds no entry its source did not.
        fs = FixState.__new__(FixState)
        fs.n = self.n
        fs.fixed0 = set(self.fixed0)
        fs.fixed1 = set(self.fixed1)
        return fs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FixState)
            and self.n == other.n
            and self.fixed0 == other.fixed0
            and self.fixed1 == other.fixed1
        )

    def __repr__(self) -> str:
        return "FixState(n=%d, fixed0=%r, fixed1=%r)" % (
            self.n,
            sorted(self.fixed0),
            sorted(self.fixed1),
        )


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
