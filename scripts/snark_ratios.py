"""Time group, nopeek and peek on flower snarks and print their ratios.

    PYTHONPATH=src python3 scripts/snark_ratios.py [--sizes 7 9] [--repeats 5]

Every (size, labeling, mode) solve runs ``--repeats`` times in one process;
a repeat runs every cell once, so a stretch of slow host touches all cells
alike.  The table gives the median time in seconds, the node count, and
the ratios peek/nopeek and nopeek/group of the medians.  The flower snarks
are infeasible, so each solve searches its whole tree.

Each size's program is built once and solved in every cell, so its set-up
(generator check, relabeled programs, row indexes, symmetry units) is made
on its first solves and shared by every later repeat and mode: with more
than one repeat, the medians time warm solves, the search alone.
"""

from __future__ import annotations

import argparse
import statistics
import time

from cycfix.bench import gen_snark
from cycfix.solver import RELABELS, Settings, solve

MODES = ("group", "nopeek", "peek")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[7, 9])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    programs = {m: gen_snark(m)[1] for m in args.sizes}
    cells = [(m, rl, mode) for m in args.sizes for rl in RELABELS
             for mode in MODES]
    times = {cell: [] for cell in cells}
    nodes = {}
    for _ in range(args.repeats):
        for m, rl, mode in cells:
            t0 = time.perf_counter()
            res = solve(programs[m], Settings(mode=mode, relabel=rl))
            times[m, rl, mode].append(time.perf_counter() - t0)
            if res.status != "infeasible":
                raise SystemExit("J%d %s %s: status %s, expected infeasible"
                                 % (m, rl, mode, res.status))
            nodes[m, rl, mode] = res.nodes
    print("| | group | nopeek | peek | peek / nopeek | nopeek / group |")
    print("|---|---|---|---|---|---|")
    for m in args.sizes:
        for rl in RELABELS:
            med = {mode: statistics.median(times[m, rl, mode])
                   for mode in MODES}
            row = ["%.3f (%s)" % (med[mode], format(nodes[m, rl, mode], ","))
                   for mode in MODES]
            print("| J%d %s | %s | %.2f× | %.2f× |" % (
                m, rl, " | ".join(row), med["peek"] / med["nopeek"],
                med["nopeek"] / med["group"]))


if __name__ == "__main__":
    main()
