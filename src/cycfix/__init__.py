"""Symmetry-based variable fixing for binary programs under cyclic groups.

Subpackages:

- :mod:`cycfix.core` — permutations, monotone-cycle tests, fixing sets and
  propagation results.
- :mod:`cycfix.imptree` — per-permutation propagation over a set of
  permutations: a union-find scan per permutation in the hot path, and the
  implication tree's events and driver as its reference.
- :mod:`cycfix.cyclic` — complete propagation for (ordered) monotone cyclic
  groups, stabilizer filtering, relabeling heuristics.
- :mod:`cycfix.oracle` — exhaustive-enumeration ground truth for testing.
- :mod:`cycfix.solver` — minimal branch-and-bound with symmetry hooks.
- :mod:`cycfix.bench` — instance format, flower-snark generator, experiment
  runner; :mod:`cycfix.cli` wraps it all for the command line.
"""

from .core import (
    FixState,
    Permutation,
    PropagationResult,
    SubcycleDecomposition,
    group_elements,
    is_monotone,
    is_monotone_ordered,
)
from .imptree import propagate_set

__all__ = [
    "FixState",
    "Permutation",
    "PropagationResult",
    "SubcycleDecomposition",
    "group_elements",
    "is_monotone",
    "is_monotone_ordered",
    "propagate_set",
]

__version__ = "0.1.0"
