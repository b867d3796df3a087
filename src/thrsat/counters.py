"""Operation counters used to report how much work a solver actually did."""
from __future__ import annotations

from dataclasses import astuple, dataclass


@dataclass
class WorkCounters:
    """Tallies of the basic operations performed by a solver run.

    assignments:       full or partial variable assignments enumerated
    vectors:           half-list rows handed to the dominating-pair search
                       (only the rows that can be in a dominating pair are
                       listed)
    comparisons:       coordinate comparisons inside the pair search
    recursion_nodes:   nodes of the pair search's recursion tree
    median_selections: medians the pair search selected to split a node
    """

    assignments: int = 0
    vectors: int = 0
    comparisons: int = 0
    recursion_nodes: int = 0
    median_selections: int = 0

    def total(self) -> int:
        return sum(astuple(self))
