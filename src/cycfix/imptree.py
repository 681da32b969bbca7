"""Per-permutation lexicographic fixing propagation: a scan and the tree.

:func:`propagate_set`, the entry every caller uses, runs
:func:`_scan_fixpoint`.  That is a queue that scans each permutation once
with :func:`_scan`, one union-find pass over the positions, and scans it
again only when a new fixing reaches a position the pass read.  The
implication tree below is the paper's structure for the same fixings.  It
stays as the reference: :func:`propagate_set_with_states` drives it, tests
compare the two drivers, and ``propagate_set(..., check_invariants=True)``
runs both, walks the tree's invariants after every event and raises
:class:`InternalLogicError` when their answers differ.  The code is plain
Python (no dataclasses, no fancy typing); the events take the node's
:class:`FixState` and the public entries return a
:class:`PropagationResult`.

The tree encodes, for one permutation ``g`` and a growing lexicographic
horizon, all minimal conjunctions of fixings that either force x < g(x) on
the horizon (necessary vertices, whose converse fixing is therefore implied)
or still allow equality on the horizon (loose ends).  Entries are 0-based.

A vertex is an int id into parallel lists on the tree (``kind``, ``entry``,
``value``, ``parent``, ``alive``, ``branch``, ``cond`` and the child slots
``first`` and ``second``; -1 is none).  Vertex 0 is the root, and
``tree.created`` is the lists' length.  Links are ids, so a tree holds no
reference cycle: refcounting frees it when its call returns, and a copy is
one slice per list.  Under :func:`propagate_set_raw` only the root can have
two children (be the junction), so every rooted path is the root plus one
chain.  A diamond forms only where both entries of a step are blank on a
loose end's path.  A lone loose end guarded by a conditional is complete
before that can happen, and an unguarded loose end's path holds only
necessary vertices, which the driver drains as each reaches the root; so
the loose end hangs directly under the root, and
:func:`index_increase_event` raises on a junction anywhere else.  Two
per-vertex caches replace the walks to the root that made one permutation
cost Theta(n^2):

- ``branch`` is the root child a vertex was created under, fixed then (a
  loose end takes the tag of the vertex it moves below).  It is read only
  while the root has two children; a diamond forms only when the root's
  single child is the loose end, so every live vertex then was created
  under one of them.  The value of an entry as seen from a loose end is the
  fixings, else the vertex of ``entry_map[entry]`` with the loose end's tag,
  or the only one there with one root child: O(1), no walk, no re-tagging.
- ``cond`` is the nearest conditional ancestor as it was when it was set.
  Ancestors only die or turn necessary, each at most once, and never
  appear, so :func:`first_conditional_ancestor` resolves the pointer past
  such vertices and compresses the path it followed.

A horizon step keeps its loose ends: one that gains a fixing vertex moves
below it, and a junction step moves it below the first branch and allocates
a loose end only for the second.  ``tree.created`` therefore counts real
allocations, at most 5 per step and 2n+3 on a monotone n-cycle;
:func:`propagate_set_raw` still checks the paper's bound of 6n+2.

``tree.path_steps`` counts entry-map candidates read and pointers followed;
``state.checks`` counts completeness checks.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import List, Sequence, Tuple

from .core import FixState, Permutation, PropagationResult

KERNEL_IMPLEMENTATION = __name__
# Only for perfbench's trace hook, which patches _kern.propagate_set_raw.
_kern = sys.modules[__name__]

ROOT = 0
CONDITIONAL = 1
NECESSARY = 2
LOOSE_END = 3

_KIND_NAMES = {ROOT: "root", CONDITIONAL: "cond", NECESSARY: "necc",
               LOOSE_END: "loose"}


class InternalLogicError(AssertionError):
    """A structural invariant of the propagation engine was violated."""


class ImplicationTree(object):
    """Rooted tree of conditional / necessary / loose-end vertices.

    Vertices are ids into the per-vertex lists (see the module docstring).
    ``entry_map`` maps an entry to the live fixing vertices carrying it (at
    most one per branch); the caller checks ``created`` against the linear
    work bound.
    """

    __slots__ = ("kind", "entry", "value", "parent", "alive", "branch",
                 "cond", "first", "second", "loose_ends", "entry_map",
                 "infeasible", "path_steps")

    def __init__(self):
        # vertex 0 is the root, vertex 1 its loose end
        self.kind, self.parent = [ROOT, LOOSE_END], [-1, 0]
        self.first, self.second = [1, -1], [-1, -1]
        self.entry, self.value, self.alive = [-1, -1], [-1, -1], [True, True]
        self.branch, self.cond = [-1, 1], [-1, -1]
        self.loose_ends, self.entry_map = {1}, {}
        self.infeasible, self.path_steps = False, 0

    @property
    def created(self):
        return len(self.kind)

    def children(self, v):
        return [c for c in (self.first[v], self.second[v]) if c >= 0]

    def new_vertex(self, kind, entry, value, parent, loose=-1):
        """Allocate a vertex in parent's first free child slot, or in the
        slot of its loose-end child ``loose``, which then moves below it."""
        kinds, branch, cond = self.kind, self.branch, self.cond
        v = len(kinds)
        kinds.append(kind)
        self.entry.append(entry)
        self.value.append(value)
        self.parent.append(parent)
        self.alive.append(True)
        b = v if parent == ROOT else branch[parent]
        branch.append(b)
        c = parent if kinds[parent] == CONDITIONAL else cond[parent]
        cond.append(c)
        self.first.append(loose)
        self.second.append(-1)
        if self.first[parent] == loose:
            self.first[parent] = v
        else:
            self.second[parent] = v
        if loose >= 0:
            self.parent[loose] = v
            branch[loose] = b
            cond[loose] = v if kind == CONDITIONAL else c
        if kind == LOOSE_END:
            self.loose_ends.add(v)
        else:
            self.entry_map.setdefault(entry, []).append(v)
        return v

    def _unregister(self, v):
        self.alive[v] = False
        if self.kind[v] == LOOSE_END:
            self.loose_ends.discard(v)
        else:
            self.entry_map[self.entry[v]].remove(v)

    def _detach(self, v):
        """Take child v out of its parent's slots, keeping their order."""
        p = self.parent[v]
        if self.first[p] == v:
            self.first[p] = self.second[p]
        self.second[p] = -1

    def remove_path(self, v):
        """Remove v and the chain below it; dead vertices keep their links."""
        self._detach(v)
        while v >= 0:
            self._unregister(v)
            v = self.first[v]

    def splice_out(self, v):
        """Remove v, hanging its one child, if any, in v's place.  A v with
        a child is its parent's first child: only the root has a second, the
        diamond's (ej, 1), and entry_map lists (ej, 0), whose fixing merges
        or removes that branch, before it."""
        p, c = self.parent[v], self.first[v]
        if c < 0:
            self._detach(v)
        else:
            self.first[p], self.parent[c] = c, p
        self._unregister(v)

    def sibling_of(self, v):
        p = self.parent[v]
        if p < 0 or self.second[p] < 0:
            return -1
        a = self.first[p]
        return self.second[p] if a == v else a


class PermPropState(object):
    """Propagation state for a single permutation.

    ``lex_index`` is the 1-based horizon: positions strictly below it have
    been consumed by index-increase events.  ``checks`` counts the
    completeness checks made on this state.
    """

    __slots__ = ("n", "image", "inv", "tree", "lex_index", "checks")

    def __init__(self, n, image, inv):
        self.n = n
        self.image = image
        self.inv = inv
        self.tree = ImplicationTree()
        self.lex_index = 1
        self.checks = 0


class FixScheduler(object):
    """Pending-fixing stack with O(1) membership, plus a contradiction flag.

    Pushing both values for one entry means the two implied fixings are
    incompatible, which the caller reports as infeasibility.
    """

    __slots__ = ("stack", "pending", "contradiction")

    def __init__(self):
        self.stack = []
        self.pending = {}
        self.contradiction = False

    def push(self, entry, value):
        have = self.pending.get(entry)
        if have is None:
            self.pending[entry] = value
            self.stack.append((entry, value))
        elif have != value:
            self.contradiction = True

    def pop(self):
        entry, value = self.stack.pop()
        if self.pending.get(entry) == value:
            del self.pending[entry]
        return entry, value


def init_state(perm, fixings):
    """Fresh state: horizon 1, tree = root plus one loose end.

    The fresh tree does not depend on ``fixings``; the events read them.
    """
    return PermPropState(perm.n, perm.image, perm.inv)


def first_conditional_ancestor(tree, v):
    """Nearest live conditional ancestor of v, or -1.

    Follows the cached ``cond`` pointers past vertices that died or turned
    necessary, then points every vertex it passed at the answer.
    """
    cond, kind, alive = tree.cond, tree.kind, tree.alive
    u = cond[v]
    while u >= 0 and (kind[u] != CONDITIONAL or not alive[u]):
        tree.path_steps += 1
        u = cond[u]
    w = v
    while cond[w] != u:
        cond[w], w = u, cond[w]
    return u


def _tree_value(tree, e, branch):
    """Value of e's vertex as seen from a loose end tagged ``branch``, else
    None.  The tags are read only under a root junction."""
    split = tree.second[0] >= 0
    for u in tree.entry_map.get(e, ()):
        tree.path_steps += 1
        if not split or tree.branch[u] == branch:
            return tree.value[u]
    return None


def _h_pair(tree, fix0, fix1, ei, ej, loose):
    """h for two entries in O(1): the fixings, else the tree's value of the
    entry as seen from the loose end, else blank."""
    return tuple(0 if e in fix0 else 1 if e in fix1 else
                 _tree_value(tree, e, tree.branch[loose]) for e in (ei, ej))


def _collapse_to_necessary(tree, u):
    """Turn conditional u into a necessary vertex with the converse fixing.

    All of u's descendants go away; if u had a sibling branch (u's parent was
    the diamond junction), the sibling is merged underneath the new necessary
    vertex: the sibling's necessary child — which carries the same fixing the
    new vertex now does — is spliced away and the sibling re-hangs below u.
    """
    sib = tree.sibling_of(u)
    if tree.first[u] >= 0:
        tree.remove_path(tree.first[u])
    tree.kind[u] = NECESSARY
    tree.value[u] = 1 - tree.value[u]
    if sib >= 0:
        x = tree.first[sib]
        if tree.kind[sib] != CONDITIONAL or x < 0 or tree.second[sib] >= 0:
            raise InternalLogicError("diamond sibling has unexpected shape")
        if tree.kind[x] != NECESSARY or tree.entry[x] != tree.entry[u] or \
                tree.value[x] != tree.value[u]:
            raise InternalLogicError("diamond pairing broken at merge")
        tree.splice_out(x)
        tree._detach(sib)
        tree.parent[sib] = u
        tree.first[u] = sib


def _push_root_fixings(tree, sched):
    for c in (tree.first[0], tree.second[0]):
        if c >= 0 and tree.kind[c] == NECESSARY:
            sched.push(tree.entry[c], tree.value[c])


def index_increase_event(state, fixings, sched):
    """Advance the lexicographic horizon by one position.

    Each loose end is extended according to the pair (h(i), h(j)) where i
    is the new position and j its preimage, by moving it below the new
    fixing vertex; the (1,0) pair removes it, and the (0,1) pair collapses
    its first conditional ancestor instead, marking the tree infeasible
    when there is none.
    """
    tree = state.tree
    p = state.lex_index - 1
    state.lex_index += 1
    ei, ej = p, state.inv[p]
    if ei == ej:
        return
    fix0, fix1 = fixings.fixed0, fixings.fixed1
    fa = 0 if ei in fix0 else (1 if ei in fix1 else None)
    fb = 0 if ej in fix0 else (1 if ej in fix1 else None)
    branch, parent = tree.branch, tree.parent
    new_vertex = tree.new_vertex
    for v in list(tree.loose_ends):
        a = fa if fa is not None else _tree_value(tree, ei, branch[v])
        b = fb if fb is not None else _tree_value(tree, ej, branch[v])
        if a is None and b is None:
            if parent[v] != ROOT:
                raise InternalLogicError("junction below the root")
            c1 = new_vertex(CONDITIONAL, ei, 0, ROOT, v)
            new_vertex(NECESSARY, ej, 0, c1, v)
            c2 = new_vertex(CONDITIONAL, ej, 1, ROOT)
            n2 = new_vertex(NECESSARY, ei, 1, c2)
            new_vertex(LOOSE_END, -1, -1, n2)
        elif a is None:                   # necessary x_i = 1 when x_j = 1
            new_vertex(NECESSARY if b else CONDITIONAL, ei, b, parent[v], v)
        elif b is None:                   # necessary x_j = 0 when x_i = 0
            new_vertex(CONDITIONAL if a else NECESSARY, ej, a, parent[v], v)
        elif a == 1 and b == 0:
            tree.remove_path(v)           # equality impossible, branch dies
        elif a == 0 and b == 1:
            u = first_conditional_ancestor(tree, v)
            if u < 0:
                tree.infeasible = True
                return
            _collapse_to_necessary(tree, u)
        # equal values: the loose end survives unchanged
    _push_root_fixings(tree, sched)


def variable_fixing_event(state, fixings_after, fixing, sched):
    """Fold a just-applied global fixing (entry, value) into the tree.

    ``fixings_after`` already holds the fixing; the tree needs only the
    fixing itself.
    """
    tree = state.tree
    entry, value = fixing
    if tree.infeasible:
        return
    alive = tree.alive
    for v in list(tree.entry_map.get(entry, ())):
        if not alive[v]:
            continue
        if tree.value[v] == value:
            # The fixing matches the vertex: its condition is met / its
            # implication discharged.  Splice it out; a sibling branch
            # hinged on the opposite condition and dies.
            sib = tree.sibling_of(v)
            tree.splice_out(v)
            if sib >= 0:
                tree.remove_path(sib)
        elif tree.kind[v] == CONDITIONAL:
            tree.remove_path(v)
        else:
            u = first_conditional_ancestor(tree, v)
            if u < 0:
                tree.infeasible = True
                return
            _collapse_to_necessary(tree, u)
    _push_root_fixings(tree, sched)


def completeness_check(state, fixings):
    """True when no further fixing can come from this permutation alone.

    Callers must drain pending fixings first so the root has no necessary
    child.  The three sufficient conditions: no loose end; horizon past n;
    or every loose-end path is guarded by a conditional vertex while the new
    position and its preimage cannot produce one.  The O(1) position tests
    of the last condition run before its per-loose-end ancestor lookups.
    """
    tree = state.tree
    state.checks += 1
    for c in (tree.first[0], tree.second[0]):
        if c >= 0 and tree.kind[c] == NECESSARY:
            raise InternalLogicError(
                "completeness_check with undrained root fixing")
    if not tree.loose_ends:
        return True
    if state.lex_index > state.n:
        return True
    p = state.lex_index - 1
    q = state.inv[p]
    if p in fixings.fixed0 or q in fixings.fixed1 or \
            state.image[p] <= p or q <= p:
        return False
    for v in tree.loose_ends:
        if first_conditional_ancestor(tree, v) < 0:
            return False
    return True


def check_tree_invariants(state, fixings):
    """Debug walk asserting the structural tree properties.

    Verifies: loose ends are leaves; no junction below the root, and a root
    junction is shaped as the conditional diamond with converse-paired
    necessary children; entries on any rooted path are distinct and
    unfixed; every loose end sees exactly the unfixed entries among the
    consumed positions and their preimages.
    It also checks the caches against the walk: while the root has two
    children, every vertex's branch tag (the root child above it); always,
    every vertex's nearest conditional ancestor and, from every loose end,
    the O(1) lookup of every entry.
    """
    tree = state.tree
    if tree.infeasible:
        return
    fix0, fix1 = fixings.fixed0, fixings.fixed1
    kind, entry, value = tree.kind, tree.entry, tree.value
    split = tree.second[0] >= 0
    seen_loose = set()
    stack = [(0, {}, -1, -1)]
    while stack:
        v, path, branch, cond = stack.pop()
        kids = tree.children(v)
        if not tree.alive[v]:
            raise InternalLogicError("dead vertex still linked")
        if tree.first[v] < 0 <= tree.second[v]:
            raise InternalLogicError("second child slot without a first")
        for c in kids:
            if tree.parent[c] != v:
                raise InternalLogicError("broken parent link")
        if split and tree.branch[v] != branch:
            raise InternalLogicError("stale branch tag on vertex %d" % v)
        if v and first_conditional_ancestor(tree, v) != cond:
            raise InternalLogicError("stale conditional ancestor of %d" % v)
        if kind[v] == LOOSE_END:
            if kids:
                raise InternalLogicError("loose end is not a leaf")
            seen_loose.add(v)
            expected = set()
            for i in range(state.lex_index - 1):
                if state.image[i] == i:
                    continue      # fixed points never enter a path
                expected.add(i)
                expected.add(state.inv[i])
            expected -= fix0
            expected -= fix1
            if path.keys() != expected:
                raise InternalLogicError(
                    "loose-end entry set %r != expected %r"
                    % (sorted(path), sorted(expected)))
            for e in range(state.n):
                walked = 0 if e in fix0 else 1 if e in fix1 else path.get(e)
                if _h_pair(tree, fix0, fix1, e, e, v)[0] != walked:
                    raise InternalLogicError("h lookup of entry %d" % e)
        if len(kids) == 2 and v:
            raise InternalLogicError("junction below the root")
        if kind[v] in (CONDITIONAL, NECESSARY):
            if entry[v] in path:
                raise InternalLogicError("duplicate entry on rooted path")
            if entry[v] in fix0 or entry[v] in fix1:
                raise InternalLogicError("fixed entry on rooted path")
            path = dict(path)
            path[entry[v]] = value[v]
        if kind[v] == CONDITIONAL:
            cond = v
        for c in kids:
            stack.append((c, path, c if len(kids) == 2 else branch, cond))
    if split:
        u1, u2 = tree.children(0)
        if kind[u1] != CONDITIONAL or kind[u2] != CONDITIONAL:
            raise InternalLogicError("junction child not conditional")
        if entry[u1] == entry[u2]:
            raise InternalLogicError("diamond entries not distinct")
        for ua, ub in ((u1, u2), (u2, u1)):
            w = tree.first[ua]
            if w < 0 or tree.second[ua] >= 0:
                raise InternalLogicError("diamond child outdegree != 1")
            if kind[w] != NECESSARY:
                raise InternalLogicError("diamond grandchild not necessary")
            if entry[w] != entry[ub] or value[w] != 1 - value[ub]:
                raise InternalLogicError("diamond converse pairing broken")
    if seen_loose != tree.loose_ends:
        raise InternalLogicError("loose-end registry out of sync")


def propagate_set_raw(perms, fix0, fix1, n, check_invariants=False):
    """Drive every permutation to completeness, applying implied fixings.

    ``perms`` must be non-identity permutations on the same ground set.
    Returns ``(feasible, fix0, fix1, states)``; the fixing sets are mutated
    in place and states are returned for inspection by tests.

    A permutation stays on the queue while it is driven.  Once off it, it
    stays complete until a new fixing reaches an entry of its tree, its
    position p or the preimage of p; such a fixing puts it straight back on
    the queue.  ``sched`` is the only conflict check: a tree never holds a
    fixed entry, so a popped fixing of a fixed entry is a logic error.
    """
    fs = FixState(n)              # the caller's sets, not copies
    fs.fixed0, fs.fixed1 = fix0, fix1
    states = [init_state(g, fs) for g in perms]
    if fix0 & fix1:
        return False, fix0, fix1, states
    sched = FixScheduler()
    queue = deque(range(len(states)))
    in_queue = [True] * len(states)

    def drain():
        while sched.stack:
            fixing = sched.pop()
            entry, value = fixing
            if entry in fix0 or entry in fix1:
                raise InternalLogicError("fixing of fixed entry %d" % entry)
            (fix1 if value else fix0).add(entry)
            for k, st in enumerate(states):
                if not in_queue[k]:
                    p = st.lex_index - 1
                    if entry == p or st.tree.entry_map.get(entry) or \
                            (p < n and st.inv[p] == entry):
                        queue.append(k)
                        in_queue[k] = True
                variable_fixing_event(st, fs, fixing, sched)
                if st.tree.infeasible:
                    return False
                if check_invariants:
                    check_tree_invariants(st, fs)
            if sched.contradiction:
                return False
        return True

    while queue:
        st = states[queue[0]]
        while not completeness_check(st, fs):
            index_increase_event(st, fs, sched)
            if st.tree.infeasible:
                return False, fix0, fix1, states
            if check_invariants:
                check_tree_invariants(st, fs)
            if sched.stack and not drain():
                return False, fix0, fix1, states
        in_queue[queue.popleft()] = False
    bound = 6 * n + 2
    for st in states:
        if st.tree.created > bound:
            raise InternalLogicError(
                "work bound exceeded: %d vertices > %d"
                % (st.tree.created, bound))
    return True, fix0, fix1, states


ZERO, ONE = -1, -2        # the scan's class roots for the two constants


def _scan(inv, fix0, fix1):
    """One union-find pass for x >=_lex g(x), where ``inv`` is sigma = g^-1.

    Returns ``(new0, new1, last)``, the complete fixings not in (fix0,
    fix1) and the last position read, or None when infeasible.  Branch k
    means x_p = x_sigma(p) for every p < k, then x_k = 1 and x_sigma(k) = 0;
    branch n means x_p = x_sigma(p) throughout.  An entry is fixed iff every
    feasible branch forces it to one value.  The first feasible branch
    forces the constant classes, which stay constant later, and two
    candidate classes: class(k) to 1 and class(sigma(k)) to 0.  Any later
    branch has merged the two, so it keeps at most one of them.  The pass
    stops when no candidate is left or when 0 and 1 are joined.

    ``label`` maps an entry to its class's root: ZERO, ONE or an entry; an
    entry missing from it is its own root.  ``members`` lists the class of
    every root entry that is not alone, and a merge relabels the smaller
    class.  ``forced0`` and ``forced1`` list the unfixed entries labelled
    with a constant in the order they were, so a prefix of each holds the
    constant classes of an earlier branch.
    """
    label = dict.fromkeys(fix0, ZERO)
    label.update(dict.fromkeys(fix1, ONE))
    members, forced0, forced1 = {}, [], []
    first, cand0, cand1 = -1, [], []
    for k, s in enumerate(inv):
        if s == k:
            continue
        rk, rs = label.get(k, k), label.get(s, s)
        if rk != rs and rk != ZERO and rs != ONE:       # branch k feasible
            if first < 0:
                # an unfixed entry of the class both candidates merge into
                first = k if rk >= 0 else s
                n0, n1 = len(forced0), len(forced1)
                if rk >= 0:
                    cand1 = list(members.get(rk) or (rk,))
                if rs >= 0:
                    cand0 = list(members.get(rs) or (rs,))
            else:
                rq = label.get(first, first)
                if rq != ONE and rq != rk:
                    cand1 = []
                if rq != ZERO and rq != rs:
                    cand0 = []
            if not cand0 and not cand1:
                break
        if rk == rs:
            continue
        if rk < 0:                          # a constant's class never moves
            if rs < 0:                      # 0 and 1 joined
                if first < 0:
                    return None
                break
            rk, rs = rs, rk
        moved = members.pop(rk, None)       # None: rk alone
        if rs < 0:
            keep = forced0 if rs == ZERO else forced1
        else:
            keep = members.get(rs)
            if moved is not None and (keep is None or len(keep) < len(moved)):
                members.pop(rs, None)       # the smaller class moves
                rk, rs, moved, keep = rs, rk, keep, moved
            if keep is None:
                keep = [rs]
            members[rs] = keep
        if moved is None:
            label[rk] = rs
            keep.append(rk)
        else:
            for e in moved:
                label[e] = rs
            keep += moved
    else:                                               # branch n
        if first < 0:
            return forced0, forced1, k
        rq = label.get(first, first)
        if rq != ONE:
            cand1 = []
        if rq != ZERO:
            cand0 = []
    return forced0[:n0] + cand0, forced1[:n1] + cand1, k


def _scan_fixpoint(perms, fix0, fix1):
    """Drive every permutation's scan to a common fixpoint, adding the new
    fixings to the sets in place; False when infeasible.

    Each permutation is scanned once from the queue.  A scan that adds
    fixings puts back every other permutation j off the queue that a new
    fixing e reaches, ``e <= last_j`` or ``image_j[e] <= last_j``: a scan
    reads only the entries p and sigma(p) of the positions p it passed.
    A scan never yields an entry fixed the other way, so such a fixing is
    a logic error.
    """
    if fix0 & fix1:
        return False
    m = len(perms)
    last = [0] * m
    queue = deque(range(m))
    in_queue = [True] * m
    while queue:
        j = queue.popleft()
        in_queue[j] = False
        out = _scan(perms[j].inv, fix0, fix1)
        if out is None:
            return False
        new0, new1, last[j] = out
        for new, same, other in ((new0, fix0, fix1), (new1, fix1, fix0)):
            for e in new:
                if e in other:
                    raise InternalLogicError("fixing of fixed entry %d" % e)
                same.add(e)
        new = new0 + new1
        if not new:
            continue
        for i in range(m):
            if in_queue[i] or i == j:
                continue
            stop, image = last[i], perms[i].image
            for e in new:
                if e <= stop or image[e] <= stop:
                    queue.append(i)
                    in_queue[i] = True
                    break
    return True


def propagate_set(
    perms: Sequence[Permutation],
    fixings: FixState,
    check_invariants: bool = False,
) -> PropagationResult:
    """Compute the combined per-permutation-complete fixing sets.

    For every permutation g the constraint is x >=_lex g(x); the result is
    the fixpoint of applying each permutation's complete fixings in turn,
    found by :func:`_scan_fixpoint`.  With ``check_invariants`` the tree
    driver also runs, walking the tree invariants after every event, and a
    result that differs from the scan's is a logic error.  Identity
    permutations are rejected: their constraint is vacuous and a caller
    passing one is confused.
    """
    if not perms:
        raise ValueError("propagate_set needs at least one permutation")
    n = fixings.n
    for g in perms:
        if g.n != n:
            raise ValueError("permutation ground set %d != %d" % (g.n, n))
        if g.is_identity():
            raise ValueError("identity permutation is not a constraint")
    fix0, fix1 = set(fixings.fixed0), set(fixings.fixed1)
    if _scan_fixpoint(perms, fix0, fix1):
        res = PropagationResult.of(fix0, fix1)
    else:
        res = PropagationResult.infeasible()
    if check_invariants:
        tree = propagate_set_with_states(perms, fixings, True)[0]
        if tree != res:
            raise InternalLogicError(
                "scan %r and tree %r disagree" % (res, tree))
    return res


def propagate_set_with_states(
    perms: Sequence[Permutation],
    fixings: FixState,
    check_invariants: bool = False,
) -> Tuple[PropagationResult, List[PermPropState]]:
    """:func:`propagate_set` by the implication trees, without its input
    checks, also returning the final per-permutation states.

    The reference driver: tests compare the scan with it and inspect its
    final trees, horizons and vertex counters.
    """
    feasible, fix0, fix1, states = propagate_set_raw(
        perms, set(fixings.fixed0), set(fixings.fixed1), fixings.n,
        check_invariants=check_invariants)
    if not feasible:
        return PropagationResult.infeasible(), states
    return PropagationResult.of(fix0, fix1), states


def tree_shape(tree: ImplicationTree) -> list:
    """Nested-list rendering of a tree for shape assertions in tests.

    Each vertex becomes ``[label, children...]`` where label is "root",
    "loose", or "cond(e,b)" / "necc(e,b)" with a 1-based entry.
    """

    def render(v):
        label = _KIND_NAMES[tree.kind[v]]
        if tree.kind[v] in (CONDITIONAL, NECESSARY):
            label = "%s(%d,%d)" % (label, tree.entry[v] + 1, tree.value[v])
        return [label] + [render(c) for c in tree.children(v)]

    return render(0)
