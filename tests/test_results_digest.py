"""Per-solve results pinned by digest.

A change to propagation or search must leave every solve's answer, node
count and symmetry fixing count as they are, unless it says why they move.
The digests are sha1 sums over (status, objective, incumbent, nodes,
sym_fixings) of each solve, in a fixed order:

- perfbench's planted-small programs (the 100 programs drawn from
  ``PlantedSmall.programs_seed``) in every mode and labeling: 2000 solves;
- flower snarks J3 and J5 in every mode and labeling, and J7 in every mode
  with the original and respect labelings: 50 solves.
"""

import hashlib
import os
import random
import sys

import pytest

from cycfix.bench import gen_snark
from cycfix.core import Permutation
from cycfix.solver import MODES, RELABELS, BinaryProgram, Row, Settings, solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import PlantedSmall, planted_program  # noqa: E402

# (sha1, solves, summed nodes, summed sym_fixings)
PLANTED_PIN = ("e8f0c04cb8cf314502106ad6e80cc48a2a254884", 2000, 68594, 5449)
SNARK_PIN = ("961ff5db3d06df2c3b1031f1154c5ba260a63a63", 50, 10340, 602)


def _digest(cells):
    sha = hashlib.sha1()
    nodes = fixings = 0
    for bp, mode, rl in cells:
        r = solve(bp, Settings(mode=mode, relabel=rl))
        sha.update(repr((r.status, r.objective, r.incumbent, r.nodes,
                         r.sym_fixings)).encode() + b"\n")
        nodes += r.nodes
        fixings += r.sym_fixings
    return sha.hexdigest(), len(cells), nodes, fixings


def _planted_cells():
    rng = random.Random(PlantedSmall.programs_seed)
    cells = []
    for k in range(PlantedSmall.programs):
        n = 8 + k % 7
        image, objective, rows = planted_program(rng, n)
        bp = BinaryProgram(n, list(objective),
                           [Row.make(dict(c), s, r) for c, s, r in rows],
                           None, [Permutation(image)])
        cells += [(bp, mode, rl) for mode in MODES for rl in RELABELS]
    return cells


def _snark_cells():
    j3, j5, j7 = (gen_snark(m)[1] for m in (3, 5, 7))
    return [(bp, mode, rl) for bp in (j3, j5) for mode in MODES
            for rl in RELABELS] + \
        [(j7, mode, rl) for mode in MODES for rl in ("original", "respect")]


@pytest.mark.parametrize("cells, pin", [(_planted_cells, PLANTED_PIN),
                                        (_snark_cells, SNARK_PIN)],
                         ids=["planted", "snarks"])
def test_per_solve_digest(cells, pin):
    got = _digest(cells())
    assert got == pin, "(sha1, solves, nodes, sym_fixings) %r, pinned %r" \
        % (got, pin)
