"""Spans and counters recorded around the entry points of each layer.

The tracer patches module attributes and class methods of the loaded
program for the length of a traced pass and restores them afterwards.  It
records, per call into a layer:

- a span (name, start, end, parent span, operation id), kept in memory and
  written out when the run ends;
- counts taken where the work happens: kernel states for ``imptree``, node
  and fixing totals from ``solve`` results, ``Permutation`` objects built
  inside the cyclic layer.

Every hooked name must exist: a missing one raises :class:`TraceHookError`
before anything is patched, so a renamed or folded entry point stops the
traced pass instead of reporting zeros.
"""

from __future__ import annotations

import gzip
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class TraceHookError(RuntimeError):
    """A layer entry point that the trace wraps does not exist."""


# Per-layer metrics with their units, in report order.
LAYER_METRICS = (
    ("imptree.calls", "count"),
    ("imptree.perms", "count"),
    ("imptree.busy_s", "s"),
    ("imptree.vertices", "count"),
    ("imptree.horizon_steps", "count"),
    ("imptree.bound_use", "ratio"),
    ("imptree.infeasible_share", "share"),
    ("cyclic.calls", "count"),
    ("cyclic.busy_s", "s"),
    ("cyclic.self_s", "s"),
    ("cyclic.subgroup_s", "s"),
    ("cyclic.perms_built", "count"),
    ("cyclic.kernel_calls", "count"),
    ("cyclic.peek_yield", "share"),
    ("node.calls", "count"),
    ("node.busy_s", "s"),
    ("node.rows_s", "s"),
    ("node.sym_s", "s"),
    ("node.fixings", "count"),
    ("solve.calls", "count"),
    ("solve.nodes", "count"),
    ("solve.sym_fixings", "count"),
    ("solve.prep_s", "s"),
    ("solve.self_s", "s"),
    ("bench.parse_calls", "count"),
    ("bench.parse_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
)


class Tracer:
    """Span recorder for one traced pass, single-threaded.

    Spans are stored column-wise in typed arrays (about 25 bytes a span),
    since a snark round records more than half a million of them.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: List[int] = []
        self.op = -1
        self.in_cyclic = 0
        self.counts: Dict[str, float] = {
            "imptree.perms": 0, "imptree.vertices": 0,
            "imptree.horizon_steps": 0, "imptree.bound_use": 0.0,
            "imptree.infeasible": 0, "cyclic.perms_built": 0,
            "cyclic.kernel_calls": 0, "cyclic.kernel_infeasible": 0,
            "node.fixings": 0, "solve.nodes": 0, "solve.sym_fixings": 0,
        }

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name; the span is kept on error too."""
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self.stack
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            stack.pop()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- hooks -----------------------------------------------------------------

    def _hooks(self, prog) -> List[Tuple[str, str, Callable]]:
        """(module, attribute path, wrapper factory) for every entry point."""
        c = self.counts

        def kernel_entry(fn):
            def propagate_set(*args, **kwargs):
                res = self.call("imptree", fn, *args, **kwargs)
                if not res.feasible:
                    c["imptree.infeasible"] += 1
                if self.in_cyclic:
                    c["cyclic.kernel_calls"] += 1
                    if not res.feasible:
                        c["cyclic.kernel_infeasible"] += 1
                return res
            return propagate_set

        def kernel_raw(fn):
            def propagate_set_raw(perms, fix0, fix1, n, *args, **kwargs):
                out = fn(perms, fix0, fix1, n, *args, **kwargs)
                bound = 6 * n + 2
                for st in out[3]:
                    c["imptree.perms"] += 1
                    c["imptree.vertices"] += st.tree.created
                    c["imptree.horizon_steps"] += st.lex_index - 1
                    use = st.tree.created / bound
                    if use > c["imptree.bound_use"]:
                        c["imptree.bound_use"] = use
                return out
            return propagate_set_raw

        def cyclic_entry(fn):
            def propagate_ordered_monotone(*args, **kwargs):
                self.in_cyclic += 1
                try:
                    return self.call("cyclic", fn, *args, **kwargs)
                finally:
                    self.in_cyclic -= 1
            return propagate_ordered_monotone

        def perm_init(fn):
            def __init__(perm, *args, **kwargs):
                fn(perm, *args, **kwargs)
                if self.in_cyclic:
                    c["cyclic.perms_built"] += 1
            return __init__

        def node_entry(fn):
            def node_propagate(bp, fixings, *args, **kwargs):
                before = len(fixings.fixed0) + len(fixings.fixed1)
                try:
                    return self.call("node", fn, bp, fixings, *args, **kwargs)
                finally:
                    c["node.fixings"] += \
                        len(fixings.fixed0) + len(fixings.fixed1) - before
            return node_propagate

        def solve_entry(fn):
            def solve(*args, **kwargs):
                res = self.call("solve", fn, *args, **kwargs)
                c["solve.nodes"] += res.nodes
                c["solve.sym_fixings"] += res.sym_fixings
                return res
            return solve

        def span(name):
            return lambda fn: self._spanned(name, fn)

        hooks = [
            ("imptree", "propagate_set", kernel_entry),
            ("solver", "propagate_set", kernel_entry),
            ("cyclic", "propagate_set", kernel_entry),
            ("imptree", "_kern.propagate_set_raw", kernel_raw),
            ("cyclic", "propagate_ordered_monotone", cyclic_entry),
            ("solver", "propagate_ordered_monotone", cyclic_entry),
            ("core", "Permutation.__init__", perm_init),
            ("solver", "node_propagate", node_entry),
            ("solver", "_SymmetryEngine.propagate", span("node.sym")),
            ("solver", "solve", solve_entry),
            ("solver", "relabel", span("solve.prep")),
            ("solver", "group_elements", span("solve.prep")),
            ("cyclic", "CyclicSubgroup.generated_by", span("solve.prep")),
            ("bench", "parse_instance_dict", span("bench.parse")),
        ]
        for name in ("restrict_to_block", "stab_pointwise",
                     "stab_setwise_pair", "elements"):
            hooks.append(("cyclic", "CyclicSubgroup." + name,
                          span("cyclic.subgroup")))
        return hooks

    def resolve(self, prog) -> List[tuple]:
        """(owner, attribute, wrapper factory, original) for every hook.

        Raises TraceHookError, before anything is patched, when a hooked
        entry point does not exist.
        """
        resolved = []
        for module, path, make in self._hooks(prog):
            where = "cycfix.%s.%s" % (module, path)
            owner = getattr(prog, module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
                if owner is None:
                    raise TraceHookError("trace hook %s is missing" % where)
            if inspect.isclass(owner):
                orig = inspect.getattr_static(owner, attr, None)
            else:
                orig = getattr(owner, attr, None)
            if not (callable(orig) or isinstance(orig, classmethod)):
                raise TraceHookError("trace hook %s is missing" % where)
            resolved.append((owner, attr, make, orig))
        return resolved

    @contextmanager
    def installed(self, prog):
        """Patch every hook into prog for the duration of the block."""
        resolved = self.resolve(prog)
        try:
            for owner, attr, make, orig in resolved:
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(make(orig.__func__)))
                else:
                    setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, _make, orig in resolved:
                setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def span_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (count, total duration, total self time)."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(start)
        for k, up in enumerate(parent):
            if up >= 0:
                child[up] += end[k] - start[k]
        cnt = [0] * len(self.names)
        tot = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for k, name_id in enumerate(self.span_name):
            took = end[k] - start[k]
            cnt[name_id] += 1
            tot[name_id] += took
            own[name_id] += took - child[k]
        return {name: (cnt[i], tot[i], own[i])
                for i, name in enumerate(self.names)}

    def layer_metrics(self, traced_wall: float,
                      untraced_wall: float) -> Dict[str, float]:
        tot = self.span_totals()
        c = self.counts

        def count(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        def share(num, den):
            return num / den if den else 0.0

        return {
            "imptree.calls": count("imptree"),
            "imptree.perms": c["imptree.perms"],
            "imptree.busy_s": busy("imptree"),
            "imptree.vertices": c["imptree.vertices"],
            "imptree.horizon_steps": c["imptree.horizon_steps"],
            "imptree.bound_use": c["imptree.bound_use"],
            "imptree.infeasible_share": share(c["imptree.infeasible"],
                                              count("imptree")),
            "cyclic.calls": count("cyclic"),
            "cyclic.busy_s": busy("cyclic"),
            "cyclic.self_s": own("cyclic"),
            "cyclic.subgroup_s": busy("cyclic.subgroup"),
            "cyclic.perms_built": c["cyclic.perms_built"],
            "cyclic.kernel_calls": c["cyclic.kernel_calls"],
            "cyclic.peek_yield": share(c["cyclic.kernel_infeasible"],
                                       c["cyclic.kernel_calls"]),
            "node.calls": count("node"),
            "node.busy_s": busy("node"),
            "node.rows_s": own("node"),
            "node.sym_s": busy("node.sym"),
            "node.fixings": c["node.fixings"],
            "solve.calls": count("solve"),
            "solve.nodes": c["solve.nodes"],
            "solve.sym_fixings": c["solve.sym_fixings"],
            "solve.prep_s": busy("solve.prep"),
            "solve.self_s": own("solve"),
            "bench.parse_calls": count("bench.parse"),
            "bench.parse_s": busy("bench.parse"),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_share": share(traced_wall - untraced_wall,
                                          untraced_wall),
            "trace.spans": len(self.span_name),
        }

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines ``[name, start, end, parent, op]``.

        Times are seconds from the first span's start; parent is the line
        number (from 0) of the enclosing span, or -1.
        """
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, name_id in enumerate(self.span_name):
                fh.write(json.dumps([
                    self.names[name_id],
                    round(self.span_start[k] - base, 7),
                    round(self.span_end[k] - base, 7),
                    self.span_parent[k], self.span_op[k]]))
                fh.write("\n")
