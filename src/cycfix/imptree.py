"""Implication-tree kernel: per-permutation lexicographic fixing propagation.

This module is both the hot core of the package and its public surface for
one permutation at a time.  The hot code is plain Python (no dataclasses,
no fancy typing); the events take the node's :class:`FixState` and the
public entries return a :class:`PropagationResult`.

The tree encodes, for one permutation ``g`` and a growing lexicographic
horizon, all minimal conjunctions of fixings that either force x < g(x) on
the horizon (necessary vertices, whose converse fixing is therefore implied)
or still allow equality on the horizon (loose ends).  Entries are 0-based.

The tree has at most one junction, so every rooted path is the trunk plus
at most one branch.  Two per-vertex caches replace the walks to the root
that made one permutation cost Theta(n^2):

- ``branch`` tags a vertex with the junction child it hangs under, or None
  on the trunk.  The value of an entry as seen from a loose end is then the
  fixings, else the one vertex of ``entry_map[entry]`` on the trunk or on
  the loose end's branch: O(1), no walk.  When the junction dissolves (a
  branch head is removed or spliced out, or a collapse re-hangs the
  sibling), the surviving branch moves to the trunk; a vertex moves at most
  once, so the moves cost O(1) amortized per vertex.
- ``cond`` points at the nearest conditional ancestor as it was when the
  pointer was set.  Ancestors only die or turn necessary, each at most
  once, and never appear, so :func:`first_conditional_ancestor` resolves
  the pointer past such vertices and compresses the path it followed.

A horizon step keeps its loose ends: one that gains a fixing vertex moves
below it, and a junction step moves it below the first branch and allocates
a loose end only for the second.  ``tree.created`` therefore counts real
allocations, at most 5 per step and 2n+3 on a monotone n-cycle;
:func:`propagate_set_raw` still checks the paper's bound of 6n+2.

``tree.path_steps`` counts the entry-map candidates read, the pointers
followed and the vertices moved to the trunk; ``state.checks`` counts
completeness checks.  Both are plain counters for tests and reports.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

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


class Vertex(object):
    __slots__ = ("kind", "entry", "value", "parent", "children", "alive",
                 "branch", "cond")

    def __init__(self, kind, entry, value, parent):
        self.kind = kind
        self.entry = entry
        self.value = value
        self.parent = parent
        self.children = []
        self.alive = True
        if parent is None:
            self.branch = self.cond = None
        else:
            self.branch = parent.branch
            self.cond = parent if parent.kind == CONDITIONAL else parent.cond

    def __repr__(self):
        if self.kind in (CONDITIONAL, NECESSARY):
            return "<%s (%d,%d)>" % (_KIND_NAMES[self.kind], self.entry,
                                     self.value)
        return "<%s>" % _KIND_NAMES[self.kind]


class ImplicationTree(object):
    """Rooted tree of conditional / necessary / loose-end vertices.

    ``entry_map`` maps an entry to the live fixing vertices carrying it (at
    most one per branch); ``created`` counts every vertex ever allocated,
    which the caller checks against the linear work bound, and
    ``path_steps`` the lookup, ancestor and retagging steps.
    """

    __slots__ = ("root", "loose_ends", "entry_map", "infeasible", "created",
                 "path_steps")

    def __init__(self):
        self.root = Vertex(ROOT, -1, -1, None)
        self.loose_ends = set()
        self.entry_map = {}
        self.infeasible = False
        self.created = 1
        self.path_steps = 0
        first = Vertex(LOOSE_END, -1, -1, self.root)
        self.root.children.append(first)
        self.loose_ends.add(first)
        self.created += 1

    # -- allocation and removal -------------------------------------------

    def new_vertex(self, kind, entry, value, parent):
        v = Vertex(kind, entry, value, parent)
        parent.children.append(v)
        self.created += 1
        if kind == LOOSE_END:
            self.loose_ends.add(v)
        else:
            self.entry_map.setdefault(entry, []).append(v)
        return v

    def _unregister(self, v):
        v.alive = False
        if v.kind == LOOSE_END:
            self.loose_ends.discard(v)
        elif v.kind in (CONDITIONAL, NECESSARY):
            lst = self.entry_map.get(v.entry)
            if lst is not None and v in lst:
                lst.remove(v)

    def remove_subtree(self, v):
        """Remove v and all its descendants from the tree.

        Removing a branch head dissolves the junction: what hangs there
        still moves to the trunk.
        """
        parent = v.parent
        if parent is not None and v in parent.children:
            parent.children.remove(v)
            if v.branch is v:
                for c in parent.children:
                    self.to_trunk(c)
        stack = [v]
        while stack:
            w = stack.pop()
            self._unregister(w)
            stack.extend(w.children)
            w.children = []

    def remove_descendants(self, v):
        children, v.children = v.children, []
        for c in children:
            self.remove_subtree(c)

    def splice_out(self, v):
        """Remove v, reattaching its children to v's parent in place."""
        parent = v.parent
        idx = parent.children.index(v)
        parent.children[idx:idx + 1] = v.children
        for c in v.children:
            c.parent = parent
        v.children = []
        self._unregister(v)

    def to_trunk(self, v):
        """Tag v and its descendants as trunk vertices."""
        stack = [v]
        while stack:
            w = stack.pop()
            self.path_steps += 1
            w.branch = None
            stack.extend(w.children)

    def sibling_of(self, v):
        parent = v.parent
        if parent is None or len(parent.children) != 2:
            return None
        a, b = parent.children
        return b if a is v else a


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
    """Nearest live conditional ancestor of v, or None.

    Follows the cached ``cond`` pointers past vertices that died or turned
    necessary, then points every vertex it passed at the answer.
    """
    u = v.cond
    while u is not None and (u.kind != CONDITIONAL or not u.alive):
        tree.path_steps += 1
        u = u.cond
    w = v
    while w.cond is not u:
        w.cond, w = u, w.cond
    return u


def _h_pair(tree, fix0, fix1, ei, ej, loose):
    """h for two entries in O(1): the fixings, else the one vertex of
    ``entry_map`` that carries the entry on the trunk or on the loose end's
    branch, else blank."""
    branch = loose.branch
    emap = tree.entry_map
    va = 0 if ei in fix0 else (1 if ei in fix1 else None)
    vb = 0 if ej in fix0 else (1 if ej in fix1 else None)
    if va is None:
        for u in emap.get(ei, ()):
            tree.path_steps += 1
            if u.branch is None or u.branch is branch:
                va = u.value
                break
    if vb is None:
        for u in emap.get(ej, ()):
            tree.path_steps += 1
            if u.branch is None or u.branch is branch:
                vb = u.value
                break
    return va, vb


def _collapse_to_necessary(tree, u):
    """Turn conditional u into a necessary vertex with the converse fixing.

    All of u's descendants go away; if u had a sibling branch (u's parent was
    the diamond junction), the sibling is merged underneath the new necessary
    vertex: the sibling's necessary child — which carries the same fixing the
    new vertex now does — is spliced away and the sibling re-hangs below u.
    """
    sib = tree.sibling_of(u)
    tree.remove_descendants(u)
    u.kind = NECESSARY
    u.value = 1 - u.value
    if sib is not None and sib.alive:
        if sib.kind != CONDITIONAL or len(sib.children) != 1:
            raise InternalLogicError("diamond sibling has unexpected shape")
        x = sib.children[0]
        if x.kind != NECESSARY or x.entry != u.entry or x.value != u.value:
            raise InternalLogicError("diamond pairing broken at merge")
        tree.splice_out(x)
        sib.parent.children.remove(sib)
        sib.parent = u
        u.children.append(sib)
        tree.to_trunk(u)                  # the junction is gone


def _push_root_fixings(tree, sched):
    for c in tree.root.children:
        if c.kind == NECESSARY:
            sched.push(c.entry, c.value)


def _hang_below(loose, w):
    """Move a loose end from its old place to hang below the new vertex w;
    it stays registered in ``tree.loose_ends``."""
    loose.parent = w
    w.children.append(loose)
    loose.branch = w.branch
    loose.cond = w if w.kind == CONDITIONAL else w.cond


def index_increase_event(state, fixings, sched, touched=None):
    """Advance the lexicographic horizon by one position.

    Each loose end is extended according to the pair (h(i), h(j)) where i
    is the new position and j its preimage, by moving it below the new
    fixing vertex; the (1,0) pair removes it, and the (0,1) pair collapses
    its first conditional ancestor instead, marking the tree infeasible
    when there is none.
    """
    tree = state.tree
    fix0, fix1 = fixings.fixed0, fixings.fixed1
    p = state.lex_index - 1
    state.lex_index += 1
    ei = p
    ej = state.inv[p]
    if ei == ej:
        return
    if touched is not None:
        touched.add(ei)
        touched.add(ej)
    for v in list(tree.loose_ends):
        if not v.alive:
            continue
        a, b = _h_pair(tree, fix0, fix1, ei, ej, v)
        if a == 0 and b == 1:
            u = first_conditional_ancestor(tree, v)
            if u is None:
                tree.infeasible = True
                return
            _collapse_to_necessary(tree, u)
            continue
        if (a, b) in ((0, 0), (1, 1)):
            continue                      # loose end survives unchanged
        if a == 1 and b == 0:
            tree.remove_subtree(v)        # equality impossible, branch dies
            continue
        parent = v.parent
        parent.children.remove(v)
        if a is None and b is None:
            if parent.branch is not None:
                raise InternalLogicError("second junction")
            c1 = tree.new_vertex(CONDITIONAL, ei, 0, parent)
            c1.branch = c1
            _hang_below(v, tree.new_vertex(NECESSARY, ej, 0, c1))
            c2 = tree.new_vertex(CONDITIONAL, ej, 1, parent)
            c2.branch = c2
            n2 = tree.new_vertex(NECESSARY, ei, 1, c2)
            tree.new_vertex(LOOSE_END, -1, -1, n2)
        elif a == 0:                      # b is None
            _hang_below(v, tree.new_vertex(NECESSARY, ej, 0, parent))
        elif a == 1:                      # b is None
            _hang_below(v, tree.new_vertex(CONDITIONAL, ej, 1, parent))
        elif b == 0:                      # a is None
            _hang_below(v, tree.new_vertex(CONDITIONAL, ei, 0, parent))
        else:                             # a is None, b == 1
            _hang_below(v, tree.new_vertex(NECESSARY, ei, 1, parent))
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
    for v in list(tree.entry_map.get(entry, ())):
        if not v.alive:
            continue
        if v.value == value:
            # The fixing matches the vertex: its condition is met / its
            # implication discharged.  Splice it out; a sibling branch
            # hinged on the opposite condition and dies.
            sib = tree.sibling_of(v)
            tree.splice_out(v)
            if sib is not None and sib.alive:
                tree.remove_subtree(sib)
        elif v.kind == CONDITIONAL:
            tree.remove_subtree(v)
        else:
            u = first_conditional_ancestor(tree, v)
            if u is None:
                tree.infeasible = True
                return
            _collapse_to_necessary(tree, u)
    _push_root_fixings(tree, sched)


def completeness_check(state, fixings, touched=None):
    """True when no further fixing can come from this permutation alone.

    Callers must drain pending fixings first so the root has no necessary
    child.  The three sufficient conditions: no loose end; horizon past n;
    or every loose-end path is guarded by a conditional vertex while the new
    position and its preimage cannot produce one.
    """
    tree = state.tree
    state.checks += 1
    for c in tree.root.children:
        if c.kind == NECESSARY:
            raise InternalLogicError(
                "completeness_check with undrained root fixing")
    if not tree.loose_ends:
        return True
    if state.lex_index > state.n:
        return True
    p = state.lex_index - 1
    q = state.inv[p]
    if touched is not None:
        touched.add(p)
        touched.add(q)
    for v in tree.loose_ends:
        if first_conditional_ancestor(tree, v) is None:
            return False
    if p in fixings.fixed0 or q in fixings.fixed1:
        return False
    if state.image[p] <= p or q <= p:
        return False
    return True


def check_tree_invariants(state, fixings):
    """Debug walk asserting the structural tree properties.

    Verifies: loose ends are leaves; at most one junction, shaped as the
    conditional diamond with converse-paired necessary children; entries on
    any rooted path are distinct and unfixed; every loose end sees exactly
    the unfixed entries among the consumed positions and their preimages.
    It also checks the caches against the walk: every vertex's branch tag
    and nearest conditional ancestor, and, from every loose end, the O(1)
    lookup of every entry.
    """
    tree = state.tree
    if tree.infeasible:
        return
    fix0, fix1 = fixings.fixed0, fixings.fixed1
    junctions = []
    seen_loose = set()
    stack = [(tree.root, {}, None, None)]
    while stack:
        v, path, branch, cond = stack.pop()
        if not v.alive and v is not tree.root:
            raise InternalLogicError("dead vertex still linked")
        for c in v.children:
            if c.parent is not v:
                raise InternalLogicError("broken parent link")
        if v.branch is not branch:
            raise InternalLogicError("stale branch tag on %r" % (v,))
        if v is not tree.root and first_conditional_ancestor(tree, v) \
                is not cond:
            raise InternalLogicError("stale conditional ancestor of %r" % (v,))
        if v.kind == LOOSE_END:
            if v.children:
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
        if len(v.children) >= 2:
            junctions.append(v)
        if v.kind in (CONDITIONAL, NECESSARY):
            if v.entry in path:
                raise InternalLogicError("duplicate entry on rooted path")
            if v.entry in fix0 or v.entry in fix1:
                raise InternalLogicError("fixed entry on rooted path")
            path = dict(path)
            path[v.entry] = v.value
        if v.kind == CONDITIONAL:
            cond = v
        for c in v.children:
            stack.append((c, path, c if len(v.children) >= 2 else branch,
                          cond))
    if len(junctions) > 1:
        raise InternalLogicError("more than one junction vertex")
    for j in junctions:
        if len(j.children) != 2:
            raise InternalLogicError("junction outdegree > 2")
        u1, u2 = j.children
        if u1.kind != CONDITIONAL or u2.kind != CONDITIONAL:
            raise InternalLogicError("junction child not conditional")
        if u1.entry == u2.entry:
            raise InternalLogicError("diamond entries not distinct")
        for ua, ub in ((u1, u2), (u2, u1)):
            if len(ua.children) != 1:
                raise InternalLogicError("diamond child outdegree != 1")
            w = ua.children[0]
            if w.kind != NECESSARY:
                raise InternalLogicError("diamond grandchild not necessary")
            if w.entry != ub.entry or w.value != 1 - ub.value:
                raise InternalLogicError("diamond converse pairing broken")
    if seen_loose != tree.loose_ends:
        raise InternalLogicError("loose-end registry out of sync")


def propagate_set_raw(perms, fix0, fix1, n,
                      check_invariants=False, touched=None):
    """Drive every permutation to completeness, applying implied fixings.

    ``perms`` must be non-identity permutations on the same ground set.
    Returns ``(feasible, fix0, fix1, states)``; the fixing sets are mutated
    in place and states are returned for inspection by tests.

    A permutation taken off the queue stays complete until a new fixing
    reaches an entry of its tree, its position p or the preimage of p; only
    those states are marked dirty, and after each permutation finishes the
    dirty ones are rechecked in index order and re-queued when incomplete.
    """
    fs = FixState(n)              # the caller's sets, not copies
    fs.fixed0, fs.fixed1 = fix0, fix1
    states = [init_state(g, fs) for g in perms]
    if fix0 & fix1:
        return False, fix0, fix1, states
    sched = FixScheduler()
    queue = deque(range(len(states)))
    in_queue = [True] * len(states)
    dirty = set()

    def drain():
        while sched.stack:
            fixing = sched.pop()
            entry, value = fixing
            if value == 0:
                if entry in fix1:
                    return False
                if entry in fix0:
                    continue
                fix0.add(entry)
            else:
                if entry in fix0:
                    return False
                if entry in fix1:
                    continue
                fix1.add(entry)
            for k, st in enumerate(states):
                if not in_queue[k]:
                    p = st.lex_index - 1
                    if entry == p or st.tree.entry_map.get(entry) or \
                            (p < n and st.inv[p] == entry):
                        dirty.add(k)
                variable_fixing_event(st, fs, fixing, sched)
                if st.tree.infeasible:
                    return False
                if check_invariants:
                    check_tree_invariants(st, fs)
            if sched.contradiction:
                return False
        return True

    while queue:
        gi = queue.popleft()
        in_queue[gi] = False
        st = states[gi]
        while not completeness_check(st, fs, touched):
            index_increase_event(st, fs, sched, touched)
            if st.tree.infeasible:
                return False, fix0, fix1, states
            if check_invariants:
                check_tree_invariants(st, fs)
            if sched.contradiction:
                return False, fix0, fix1, states
            if not drain():
                return False, fix0, fix1, states
        # New fixings can demote a dirty permutation from complete back to
        # pending (its next position may have become fixed); re-queue.
        for k in sorted(dirty):
            if k != gi and not completeness_check(states[k], fs):
                queue.append(k)
                in_queue[k] = True
        dirty.clear()
    bound = 6 * n + 2
    for st in states:
        if st.tree.created > bound:
            raise InternalLogicError(
                "work bound exceeded: %d vertices > %d"
                % (st.tree.created, bound))
    return True, fix0, fix1, states


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
) -> Tuple[PropagationResult, List[PermPropState]]:
    """Like propagate_set, without its input checks, but also returns the
    final per-permutation states.

    Test hook: lets tests inspect final trees, horizons and vertex counters.
    """
    feasible, fix0, fix1, states = propagate_set_raw(
        perms, set(fixings.fixed0), set(fixings.fixed1), fixings.n,
        check_invariants=check_invariants, touched=touched)
    if not feasible:
        return PropagationResult.infeasible(), states
    return PropagationResult.of(fix0, fix1), states


def tree_shape(tree: ImplicationTree) -> list:
    """Nested-list rendering of a tree for shape assertions in tests.

    Each vertex becomes ``[label, children...]`` where label is "root",
    "loose", or "cond(e,b)" / "necc(e,b)" with a 1-based entry.
    """

    def render(v):
        label = _KIND_NAMES[v.kind]
        if v.kind in (CONDITIONAL, NECESSARY):
            label = "%s(%d,%d)" % (label, v.entry + 1, v.value)
        return [label] + [render(c) for c in v.children]

    return render(tree.root)
