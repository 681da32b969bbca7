"""Symmetry-based variable fixing for binary programs under cyclic groups.

Subpackages:

- :mod:`cycfix.core` — permutations, lexicographic relations, fixing sets.
- :mod:`cycfix.imptree` — per-permutation propagation via implication trees.
- :mod:`cycfix.cyclic` — complete propagation for (ordered) monotone cyclic
  groups, stabilizer filtering, relabeling heuristics.
- :mod:`cycfix.oracle` — exhaustive-enumeration ground truth for testing.
- :mod:`cycfix.solver` — minimal branch-and-bound with symmetry hooks.
- :mod:`cycfix.bench` — instance format, flower-snark generator, experiment
  runner; :mod:`cycfix.cli` wraps it all for the command line.
"""

from .core import (
    FixState,
    Fixing,
    LexOutcome,
    Permutation,
    SubcycleDecomposition,
    group_elements,
    is_monotone,
    is_monotone_ordered,
    lex_compare_upto,
)
from .imptree import PropagationResult, propagate_set

__all__ = [
    "FixState",
    "Fixing",
    "LexOutcome",
    "Permutation",
    "PropagationResult",
    "SubcycleDecomposition",
    "group_elements",
    "is_monotone",
    "is_monotone_ordered",
    "lex_compare_upto",
    "propagate_set",
]

__version__ = "0.1.0"
