"""Instance file format, flower-snark generator, and experiment runner.

Instance files are JSON with 1-based indices throughout (this module is the
translation boundary to the 0-based library API):

.. code-block:: json

    {
      "name": "example",
      "n": 3,
      "variables": ["x1", "x2", "x3"],
      "objective": {"1": 1.0, "2": 1.0, "3": 1.0},
      "rows": [{"coeffs": {"1": 1.0, "2": 1.0}, "sense": "<=", "rhs": 1.0},
               {"coeffs": {"2": 1.0, "3": 1.0}, "sense": "<=", "rhs": 1.0},
               {"coeffs": {"1": 1.0, "3": 1.0}, "sense": "<=", "rhs": 1.0}],
      "generators": [[[1, 2, 3]]]
    }

``generators`` lists permutations in cycle form.  Unknown keys anywhere are
rejected so that typos fail loudly.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .core import InvalidPermutationError, Permutation
from .solver import BinaryProgram, Row, Settings, SolveResult, solve


class InstanceError(ValueError):
    """Malformed instance document; message carries key context."""


# -- instance format ---------------------------------------------------------

_TOP_KEYS = {"name", "n", "variables", "objective", "rows", "generators"}
_ROW_KEYS = {"coeffs", "sense", "rhs"}


def _number(val: object) -> Optional[float]:
    """``val`` as a float if it is a finite JSON number, else None.  A
    boolean, a string, NaN or an infinity is no number here, although
    ``float()`` takes them all."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:  # an int beyond the float range
        return None
    return val if math.isfinite(val) else None


def parse_index(text: str, n: int, what: str) -> int:
    """The 0-based position of a 1-based index spelled ``str(i)``.

    ``int()`` also reads "01", " 2", "+3", "1_0" and non-ASCII digits, so
    two spellings of one index could silently overwrite each other; only
    the canonical spelling is an index here.
    """
    try:
        i = int(text)
    except (TypeError, ValueError):
        raise InstanceError("%s: non-integer index %r" % (what, text))
    if str(i) != text:
        raise InstanceError("%s: index %r is not written as a plain "
                            "decimal" % (what, text))
    if not 1 <= i <= n:
        raise InstanceError("%s: index %d outside 1..%d" % (what, i, n))
    return i - 1


def _parse_coeffs(obj: Dict[str, float], n: int,
                  what: str) -> Dict[int, float]:
    """A JSON object of 1-based index: number as {0-based entry: coeff},
    in O(size of the object) whatever n is."""
    if not isinstance(obj, dict):
        raise InstanceError("%s: not an object of index: value" % what)
    coeffs = {}
    for key, val in obj.items():
        i = parse_index(key, n, what)
        num = _number(val)
        if num is None:
            raise InstanceError("%s: value %r at index %s is not a finite "
                                "number" % (what, val, key))
        coeffs[i] = num
    return coeffs


def parse_instance_dict(doc: dict) -> Tuple[str, BinaryProgram]:
    if not isinstance(doc, dict):
        raise InstanceError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceError("unknown keys: %s" % ", ".join(sorted(unknown)))
    for req in ("name", "n", "rows"):
        if req not in doc:
            raise InstanceError("missing key %r" % req)
    if not isinstance(doc["name"], str):
        raise InstanceError("name must be a string")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceError("n must be a positive integer")
    names = doc.get("variables")
    if names is not None:
        if not isinstance(names, list) or \
                not all(isinstance(v, str) for v in names):
            raise InstanceError("variables must be a list of names")
        if len(names) != n or len(set(names)) != n:
            raise InstanceError("variables must be %d distinct names" % n)
    objective = [0.0] * n
    for i, c in _parse_coeffs(doc.get("objective", {}), n,
                              "objective").items():
        objective[i] = c
    if not isinstance(doc["rows"], list):
        raise InstanceError("rows must be a list of objects")
    rows = []
    for ridx, rdoc in enumerate(doc["rows"], start=1):
        if not isinstance(rdoc, dict):
            raise InstanceError("row %d: not an object" % ridx)
        unknown = set(rdoc) - _ROW_KEYS
        if unknown:
            raise InstanceError(
                "row %d: unknown keys %s" % (ridx, ", ".join(sorted(unknown))))
        try:
            coeffs = _parse_coeffs(rdoc["coeffs"], n, "row %d" % ridx)
            sense = rdoc["sense"]
            rhs = rdoc["rhs"]
        except KeyError as exc:
            raise InstanceError("row %d: missing key %s" % (ridx, exc))
        num = _number(rhs)
        if num is None:
            raise InstanceError(
                "row %d: rhs %r is not a finite number" % (ridx, rhs))
        if sense not in ("<=", "=="):
            raise InstanceError("row %d: bad sense %r" % (ridx, sense))
        rows.append(Row.make({i: a for i, a in coeffs.items() if a != 0.0},
                             sense, num))
    gdocs = doc.get("generators", [])
    if not isinstance(gdocs, list):
        raise InstanceError("generators must be a list of cycle lists")
    generators = []
    for gidx, cycles in enumerate(gdocs, start=1):
        try:
            generators.append(Permutation.from_cycles(n, cycles))
        except InvalidPermutationError as exc:
            raise InstanceError("generator %d: %s" % (gidx, exc))
        except (TypeError, ValueError):
            raise InstanceError("generator %d: %r is not a list of cycles "
                                "of integers" % (gidx, cycles))
    bp = BinaryProgram(n, objective, rows, names, generators)
    return doc["name"], bp


def instance_to_dict(name: str, bp: BinaryProgram) -> dict:
    return {
        "name": name,
        "n": bp.n,
        "variables": list(bp.names),
        "objective": {str(i + 1): c for i, c in enumerate(bp.objective)
                      if c != 0.0},
        "rows": [
            {
                "coeffs": {str(i + 1): a for i, a in r.coeffs},
                "sense": r.sense,
                "rhs": r.rhs,
            }
            for r in bp.rows
        ],
        "generators": [
            [list(c) for c in g.cycles()] for g in bp.generators
        ],
    }


def parse_instance(path: str) -> Tuple[str, BinaryProgram]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError("%s: invalid JSON at line %d: %s"
                                % (path, exc.lineno, exc.msg))
        except (UnicodeDecodeError, RecursionError) as exc:
            # Non-UTF-8 bytes, or nesting deeper than the decoder's stack.
            raise InstanceError("%s: unreadable JSON: %s" % (path, exc))
    try:
        return parse_instance_dict(doc)
    except InstanceError as exc:
        raise InstanceError("%s: %s" % (path, exc))


def write_instance(name: str, bp: BinaryProgram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(name, bp), fh, indent=1)
        fh.write("\n")


# -- flower snarks -----------------------------------------------------------


def _snark_graph(m: int):
    """Vertices and edges of the flower snark with parameter m (odd >= 3).

    Vertex classes a, b, c, d of size m each; edge order is fixed so the
    lifted generators are reproducible: the three spokes of each hub a_i in
    i-order, then the b-cycle, then the outer c/d cycle.
    """
    a = [("a", i) for i in range(1, m + 1)]
    b = [("b", i) for i in range(1, m + 1)]
    c = [("c", i) for i in range(1, m + 1)]
    d = [("d", i) for i in range(1, m + 1)]
    edges = []
    for i in range(m):
        edges.append((a[i], b[i]))
        edges.append((a[i], c[i]))
        edges.append((a[i], d[i]))
    for i in range(m):
        edges.append((b[i], b[(i + 1) % m]))
    for i in range(m - 1):
        edges.append((c[i], c[i + 1]))
        edges.append((d[i], d[i + 1]))
    edges.append((c[m - 1], d[0]))
    edges.append((d[m - 1], c[0]))
    return a + b + c + d, edges


def _lift_vertex_map(edges, vmap) -> Permutation:
    """Edge permutation induced by a vertex automorphism, applied per color."""
    index = {frozenset(e): k for k, e in enumerate(edges)}
    eimg = [0] * len(edges)
    for k, (u, v) in enumerate(edges):
        target = frozenset((vmap[u], vmap[v]))
        if target not in index:
            raise ValueError("vertex map is not an automorphism")
        eimg[k] = index[target]
    nvars = 3 * len(edges)
    image = [0] * nvars
    for k in range(len(edges)):
        for col in range(3):
            image[3 * k + col] = 3 * eimg[k] + col
    return Permutation(image)


def _color_perm(nedges: int, cmap: Sequence[int]) -> Permutation:
    image = [0] * (3 * nedges)
    for k in range(nedges):
        for col in range(3):
            image[3 * k + col] = 3 * k + cmap[col]
    return Permutation(image)


def gen_snark(n_param: int) -> Tuple[str, BinaryProgram]:
    """3-edge-coloring model of the flower snark with parameter n_param.

    Variables x_{e,k} (edge-major: variable 3e+k) say edge e gets color k;
    packing rows forbid equal colors on adjacent edges and partition rows
    force exactly one color per edge.  The graphs have chromatic index 4,
    so every instance is infeasible.  Declared symmetries: the lifted
    rotation, the lifted reflection, and on colors a 3-cycle plus one
    transposition (a generating set of the color symmetric group).
    """
    m = n_param
    if m < 3 or m % 2 == 0:
        raise ValueError("flower snark parameter must be odd and >= 3")
    vertices, edges = _snark_graph(m)
    ne = len(edges)
    nvars = 3 * ne
    rows: List[Row] = []
    incident: Dict[Tuple, List[int]] = {}
    for k, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(k)
        incident.setdefault(v, []).append(k)
    for vtx in vertices:
        inc = incident[vtx]
        for x in range(len(inc)):
            for y in range(x + 1, len(inc)):
                for col in range(3):
                    rows.append(Row.make(
                        {3 * inc[x] + col: 1.0, 3 * inc[y] + col: 1.0},
                        "<=", 1.0))
    for k in range(ne):
        rows.append(Row.make(
            {3 * k + col: 1.0 for col in range(3)}, "==", 1.0))

    def rot(vtx):
        cls, i = vtx
        if cls in ("a", "b"):
            return (cls, i % m + 1)
        if cls == "c":
            return ("c", i + 1) if i < m else ("d", 1)
        return ("d", i + 1) if i < m else ("c", 1)

    def refl(vtx):
        cls, i = vtx
        if i == 1:
            return ("d", 1) if cls == "c" else (("c", 1) if cls == "d" else vtx)
        return (cls, m + 2 - i)

    generators = [
        _lift_vertex_map(edges, {v: rot(v) for v in vertices}),
        _lift_vertex_map(edges, {v: refl(v) for v in vertices}),
        _color_perm(ne, (1, 2, 0)),   # color 3-cycle
        _color_perm(ne, (1, 0, 2)),   # one color transposition
    ]
    names = ["%s%d_%s%d_c%d"
             % (edges[k][0][0], edges[k][0][1],
                edges[k][1][0], edges[k][1][1], col + 1)
             for k in range(ne) for col in range(3)]
    bp = BinaryProgram(nvars, [0.0] * nvars, rows, names, generators)
    return "flower_snark_%d" % m, bp


# -- experiment runner -------------------------------------------------------


def shifted_geomean(values: Sequence[float]) -> float:
    """(prod(v_i + s))^(1/n) - s with s = 10; the standard time aggregation
    statistic."""
    if not values:
        raise ValueError("shifted_geomean of empty sequence")
    s = 10.0
    return math.exp(sum(math.log(v + s) for v in values) / len(values)) - s


@dataclass
class RunRow:
    instance: str
    mode: str
    relabel: str
    status: str
    time: float
    nodes: int
    sym_fixings: int
    sym_time: float
    error: str = ""                  # exception message of an error row

    @property
    def failed(self) -> bool:
        return self.status.startswith("error:")


@dataclass
class ExperimentReport:
    """Run rows plus summary lines; error rows (status ``error:<Type>``)
    are counted but left out of every time aggregate."""

    rows: List[RunRow]

    def times(self) -> List[float]:
        return [r.time for r in self.rows if not r.failed]

    def to_text(self) -> str:
        lines = ["instance\tmode\trelabel\tstatus\ttime\tnodes"
                 "\tsym_fixings\tsym_time\terror"]
        for r in self.rows:
            lines.append("%s\t%s\t%s\t%s\t%.3f\t%d\t%d\t%.3f\t%s" % (
                r.instance, r.mode, r.relabel, r.status, r.time,
                r.nodes, r.sym_fixings, r.sym_time,
                " ".join(r.error.split())))
        times = self.times()
        total = sum(times)
        total_sym = sum(r.sym_time for r in self.rows)
        solved = sum(1 for r in self.rows
                     if r.status in ("optimal", "infeasible"))
        lines.append("")
        lines.append("runs\t%d" % len(self.rows))
        lines.append("solved\t%d" % solved)
        lines.append("errors\t%d" % sum(r.failed for r in self.rows))
        lines.append("time_shifted_geomean\t%s"
                     % ("%.3f" % shifted_geomean(times) if times else "-"))
        lines.append("total_time\t%.3f" % total)
        lines.append("symmetry_time\t%.3f" % total_sym)
        lines.append("symmetry_percent\t%.1f"
                     % (100.0 * total_sym / total if total > 0 else 0.0))
        return "\n".join(lines) + "\n"


def _run_one(args) -> RunRow:
    name, bp, settings = args
    mode, rl, time_limit = settings.mode, settings.relabel, settings.time_limit
    try:
        # a fresh copy: no set-up record from an earlier cell
        res: SolveResult = solve(replace(bp), settings)
        t = time_limit if res.status == "timelimit" else res.wall_time
        return RunRow(name, mode, rl, res.status, t,
                      res.nodes, res.sym_fixings, res.sym_time)
    except Exception as exc:  # recorded, never aborts the grid
        return RunRow(name, mode, rl, "error:%s" % type(exc).__name__,
                      0.0, 0, 0, 0.0, str(exc))


def run_experiment(
    instances: Sequence[Tuple[str, BinaryProgram]],
    modes: Sequence[str],
    relabels: Sequence[str],
    time_limit: Optional[float] = None,
    jobs: int = 1,
) -> ExperimentReport:
    """Full factorial grid; deterministic row order regardless of workers.
    Each cell's time includes its program's set-up, with any ``jobs``."""
    if not instances or not modes or not relabels:
        raise ValueError("experiment grid must be nonempty in every axis")
    if jobs < 1:
        raise ValueError("jobs %r is not a positive number of workers"
                         % (jobs,))
    # Settings checks each mode, relabeling and the time limit up front.
    grid = [(name, bp, Settings(mode, rl, time_limit))
            for name, bp in instances for mode in modes for rl in relabels]
    workers = min(jobs, len(grid))  # a pool starts all its workers at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) \
                as pool:
            rows = list(pool.map(_run_one, grid))
    else:
        rows = [_run_one(g) for g in grid]
    rows.sort(key=lambda r: (r.instance, r.mode, r.relabel))
    return ExperimentReport(rows)
