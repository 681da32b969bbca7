"""Command-line interface.

Subcommands: solve, propagate, oracle, gen-snark, experiment.  All index
lists on the command line and in printed output are 1-based.

Exit codes: 0 success (optimal / feasible report), 1 infeasible,
2 time limit reached, 64 usage or input error.  An instance whose declared
generators are not all symmetries of its program is an input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import bench, oracle
from .core import FixState, Permutation
from .solver import (MODES, RELABELS, BinaryProgram, Settings,
                     node_propagate, solve)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_TIMELIMIT = 2
EXIT_USAGE = 64

MAX_GROUP_ELEMENTS = 100000  # the oracle's group closure, identity included


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


def _parse_fix_list(text: Optional[str], n: int, what: str) -> List[int]:
    if not text:
        return []
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(bench.parse_index(part, n, what))
    return out


def _fmt_indices(indices) -> str:
    return ",".join(str(i + 1) for i in sorted(indices)) or "-"


def _load_instance(path: str):
    try:
        name, bp = bench.parse_instance(path)
    except OSError as exc:
        raise UsageError(str(exc))
    try:
        bp.check_generators()
    except ValueError as exc:
        raise UsageError("%s: %s" % (path, exc))
    return name, bp


def _fix_state(args, bp: BinaryProgram) -> FixState:
    fs = FixState(bp.n)
    for i in _parse_fix_list(args.fix0, bp.n, "--fix0"):
        fs.fixed0.add(i)
    for i in _parse_fix_list(args.fix1, bp.n, "--fix1"):
        fs.fixed1.add(i)
    if not fs.is_consistent():
        raise UsageError("--fix0 and --fix1 overlap")
    return fs


def _cmd_solve(args) -> int:
    name, bp = _load_instance(args.instance)
    try:
        settings = Settings(
            mode=args.mode, relabel=args.relabel, time_limit=args.time_limit)
    except ValueError as exc:
        raise UsageError(str(exc))
    res = solve(bp, settings)
    print("instance: %s" % name)
    print("status: %s" % res.status)
    if res.objective is not None:
        print("objective: %.6g" % res.objective)
    if res.incumbent is not None:
        ones = [i for i, b in enumerate(res.incumbent) if b]
        print("ones: %s" % _fmt_indices(ones))
    print("nodes: %d" % res.nodes)
    print("sym_fixings: %d" % res.sym_fixings)
    print("time: %.3f" % res.wall_time)
    if res.status == "infeasible":
        return EXIT_INFEASIBLE
    if res.status == "timelimit":
        return EXIT_TIMELIMIT
    return EXIT_OK


def _cmd_propagate(args) -> int:
    name, bp = _load_instance(args.instance)
    fs = _fix_state(args, bp)
    out = fs.copy()
    if not node_propagate(bp, out, Settings(mode=args.mode)):
        print("infeasible")
        return EXIT_INFEASIBLE
    print("fixed0 added: %s" % _fmt_indices(out.fixed0 - fs.fixed0))
    print("fixed1 added: %s" % _fmt_indices(out.fixed1 - fs.fixed1))
    return EXIT_OK


def _group_closure(generators: Sequence[Permutation]):
    """All non-identity elements of the generated group, BFS closure; a
    UsageError once it exceeds MAX_GROUP_ELEMENTS."""
    if not generators:
        return []
    ident = Permutation.identity(generators[0].n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                p = h.compose(g)
                if p not in seen:
                    if len(seen) >= MAX_GROUP_ELEMENTS:
                        raise UsageError("generated group exceeds %d elements"
                                         % MAX_GROUP_ELEMENTS)
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return [g for g in seen if not g.is_identity()]


def _cmd_oracle(args) -> int:
    name, bp = _load_instance(args.instance)
    fs = _fix_state(args, bp)
    perms = _group_closure(bp.generators)
    if not perms:
        raise UsageError("instance declares no symmetry generators")
    try:
        res = oracle.complete_fixings_oracle(perms, fs, cap=args.cap)
    except oracle.CapacityError as exc:
        raise UsageError(str(exc))
    if not res.feasible:
        print("infeasible")
        return EXIT_INFEASIBLE
    print("fixed0 added: %s" % _fmt_indices(res.fixed0 - fs.fixed0))
    print("fixed1 added: %s" % _fmt_indices(res.fixed1 - fs.fixed1))
    return EXIT_OK


def _cmd_gen_snark(args) -> int:
    try:
        name, bp = bench.gen_snark(args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        bench.write_instance(name, bp, args.out)
    except OSError as exc:
        raise UsageError(str(exc))
    print("wrote %s (%d variables, %d rows)" % (args.out, bp.n, len(bp.rows)))
    return EXIT_OK


def _check_report_path(path: str) -> None:
    """Fail before the grid runs when the report cannot be written to path.

    Opens nothing, so an existing report is not truncated.
    """
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError("report %s: is a directory" % path)
    if not os.path.isdir(folder):
        raise UsageError("report %s: no directory %s" % (path, folder))
    if not os.access(folder, os.W_OK) or \
            (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise UsageError("report %s: not writable" % path)


def _cmd_experiment(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise UsageError("--jobs %d outside 1..%d" % (args.jobs, cpus))
    try:
        with open(args.grid, "r", encoding="utf-8") as fh:
            grid = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers invalid JSON and non-UTF-8 bytes; RecursionError
        # nesting deeper than the decoder's stack.
        raise UsageError("grid %s: %s" % (args.grid, exc))
    if not isinstance(grid, dict):
        raise UsageError("grid %s: not a JSON object" % args.grid)
    known = {"instances", "modes", "relabels", "time_limit"}
    unknown = set(grid) - known
    if unknown:
        raise UsageError("grid: unknown keys %s" % ", ".join(sorted(unknown)))
    if "instances" not in grid:
        raise UsageError("grid: missing key 'instances'")
    for key in ("instances", "modes", "relabels"):
        value = grid.get(key, [])
        if not isinstance(value, list) or \
                not all(isinstance(v, str) for v in value):
            raise UsageError("grid: %r is not a list of strings" % key)
    limit = grid.get("time_limit")
    if limit is not None and (isinstance(limit, bool)
                              or not isinstance(limit, (int, float))):
        raise UsageError("grid: 'time_limit' is neither a number nor null")
    if args.out and args.out != "-":
        _check_report_path(args.out)
    instances = [_load_instance(p) for p in grid["instances"]]
    try:
        report = bench.run_experiment(
            instances,
            modes=grid.get("modes", list(MODES)),
            relabels=grid.get("relabels", list(RELABELS)),
            time_limit=limit,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    text = report.to_text()
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("report %s" % exc)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> _Parser:
    top = _Parser(prog="cycfix",
                  description="Symmetry-based fixing propagation for binary "
                              "programs under cyclic groups.")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="branch-and-bound solve")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=MODES, default="peek")
    p.add_argument("--relabel", choices=RELABELS, default="original")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("propagate", help="one propagation round at a node")
    p.add_argument("--instance", required=True)
    p.add_argument("--fix0", help="comma-separated 1-based indices fixed to 0")
    p.add_argument("--fix1", help="comma-separated 1-based indices fixed to 1")
    p.add_argument("--mode", choices=MODES, default="peek")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("oracle", help="exhaustive ground-truth fixings")
    p.add_argument("--instance", required=True)
    p.add_argument("--fix0")
    p.add_argument("--fix1")
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                   help="max unfixed entries to enumerate")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-snark", help="write a flower-snark instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_snark)

    p = sub.add_parser("experiment", help="run a solve grid, emit a report")
    p.add_argument("--grid", required=True, help="JSON grid description")
    p.add_argument("--out", help="report path, '-' for stdout")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, bench.InstanceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
