"""Answer references that share no code with cycfix.

Every answer the benchmark accepts is checked against one of these:

- :func:`lex_fixpoint` — the per-permutation-complete fixing fixpoint for
  constraints x >=_lex g(x), by a union-find scan (``kernel-long``);
- :func:`planted_optimum` — the optimum of a small binary program by
  enumerating every 0/1 vector (``planted-small``);
- :func:`row_violation` — a literal re-check of an incumbent against the
  rows of the program it claims to solve.

Flower snarks need no computation: their chromatic index is 4, so the
3-edge-colouring programs are infeasible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

ZERO = -1   # union-find node standing for the constant 0
ONE = -2    # ... and for the constant 1

FixSets = Tuple[Set[int], Set[int]]


class _Classes:
    """Union-find over entries and the two constants, built lazily.

    An entry without a parent pointer is its own root, unless it is fixed,
    in which case it belongs to the class of its constant.  Only entries the
    scan touches get pointers, so a scan that stops early costs what it read.
    """

    __slots__ = ("fix0", "fix1", "parent", "broken")

    def __init__(self, fix0: Set[int], fix1: Set[int]):
        self.fix0 = fix0
        self.fix1 = fix1
        self.parent = {}
        self.broken = False   # ZERO and ONE were joined

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while root in parent:
            root = parent[root]
        if root >= 0:
            if root in self.fix0:
                root = ZERO
            elif root in self.fix1:
                root = ONE
        while i in parent and parent[i] != root:
            parent[i], i = root, parent[i]
        if i >= 0 and i != root:
            parent[i] = root
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra < 0 and rb < 0:
            self.broken = True
        elif ra < 0:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


def perm_fixings(inv: Sequence[int], fix0: Set[int],
                 fix1: Set[int]) -> Optional[FixSets]:
    """New complete fixings for one constraint x >=_lex g(x), or None.

    ``inv`` is sigma = g^-1, so g(x)_p = x_sigma(p).  The constraint holds
    iff for some k: x_p = x_sigma(p) for all p < k, and either k = n or
    (x_k = 1 and x_sigma(k) = 0).  Scanning k upward, branch k is a set of
    equalities plus two constants; a class without a constant is free in
    it.  An entry is fixed iff every feasible branch forces it to the same
    value.  The first feasible branch k1 forces the constant classes (which
    stay forced in every later branch) plus class(k1) -> 1 and
    class(sigma(k1)) -> 0; in later branches those two classes are merged,
    so each later branch keeps at most one of the two candidate values.
    The scan stops once no candidate is left.  Returns the fixings not
    already in (fix0, fix1).
    """
    n = len(inv)
    uf = _Classes(fix0, fix1)
    seen: List[int] = []
    first = None                # an entry of the merged candidate class
    cand1: List[int] = []
    cand0: List[int] = []
    forced0: List[int] = []
    forced1: List[int] = []
    done = False
    for k in range(n):
        s = inv[k]
        if s == k:
            continue            # x_k = x_k always; branch k is impossible
        rk, rs = uf.find(k), uf.find(s)
        if rk != rs and rk != ZERO and rs != ONE:
            if first is None:
                first = k
                for e in seen + [k, s]:
                    r = uf.find(e)
                    if r == ZERO:
                        forced0.append(e)
                    elif r == ONE:
                        forced1.append(e)
                    elif r == rk:
                        cand1.append(e)
                    elif r == rs:
                        cand0.append(e)
            else:
                rq = uf.find(first)
                if rq == ONE or rq == rk:
                    cand0 = []
                elif rq == ZERO or rq == rs:
                    cand1 = []
                else:
                    cand0 = cand1 = []
                if not cand0 and not cand1:
                    done = True
                    break
        seen.append(k)
        seen.append(s)
        uf.union(k, s)
        if uf.broken:
            done = True         # no later branch, nor k = n, is feasible
            break
    if not done:
        # branch k = n: all equalities hold, no extra constants
        if first is None:
            for e in seen:
                r = uf.find(e)
                if r == ZERO:
                    forced0.append(e)
                elif r == ONE:
                    forced1.append(e)
            first = n
        else:
            rq = uf.find(first)
            if rq == ONE:
                cand0 = []
            elif rq == ZERO:
                cand1 = []
            else:
                cand0 = cand1 = []
    if first is None:
        return None
    new0 = (set(forced0) | set(cand0)) - fix0
    new1 = (set(forced1) | set(cand1)) - fix1
    return new0, new1


def lex_fixpoint(invs: Sequence[Sequence[int]], fix0: Set[int],
                 fix1: Set[int]) -> Optional[FixSets]:
    """Fixpoint of per-permutation complete fixings, or None if infeasible.

    ``invs`` lists sigma = g^-1 for every permutation g; the result is the
    least pair of fixing sets above (fix0, fix1) that no single permutation
    can extend.
    """
    fix0, fix1 = set(fix0), set(fix1)
    if fix0 & fix1:
        return None
    changed = True
    while changed:
        changed = False
        for inv in invs:
            res = perm_fixings(inv, fix0, fix1)
            if res is None:
                return None
            new0, new1 = res
            if new0 or new1:
                fix0 |= new0
                fix1 |= new1
                changed = True
    return fix0, fix1


# -- small binary programs -----------------------------------------------------

Row = Tuple[Tuple[Tuple[int, float], ...], str, float]
TOL = 1e-6


def row_violation(x: Sequence[int], rows: Sequence[Row]) -> Optional[int]:
    """Index of the first row that x violates, or None."""
    for r, (coeffs, sense, rhs) in enumerate(rows):
        act = sum(a * x[i] for i, a in coeffs)
        if sense == "<=" and act > rhs + TOL:
            return r
        if sense == "==" and abs(act - rhs) > TOL:
            return r
    return None


def planted_optimum(n: int, objective: Sequence[float],
                    rows: Sequence[Row]) -> Optional[float]:
    """max objective . x over binary x meeting every row, by enumeration.

    Walks all 2^n vectors in Gray-code order, so each step flips one entry
    and updates only the activities of the rows it appears in.  None means
    no vector is feasible.
    """
    touches: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for r, (coeffs, _sense, _rhs) in enumerate(rows):
        for i, a in coeffs:
            touches[i].append((r, a))

    def holds(r: int, act: float) -> bool:
        _coeffs, sense, rhs = rows[r]
        if sense == "<=":
            return act <= rhs + TOL
        return abs(act - rhs) <= TOL

    act = [0.0] * len(rows)
    ok = [holds(r, 0.0) for r in range(len(rows))]
    violated = ok.count(False)
    x = [0] * n
    value = 0.0
    best = value if violated == 0 else None
    for step in range(1, 1 << n):
        i = (step & -step).bit_length() - 1
        d = 1 - 2 * x[i]
        x[i] += d
        value += d * objective[i]
        for r, a in touches[i]:
            act[r] += d * a
            now = holds(r, act[r])
            if now != ok[r]:
                ok[r] = now
                violated += -1 if now else 1
        if violated == 0 and (best is None or value > best):
            best = value
    return best
