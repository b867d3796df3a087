"""Operation counters used to report how much work a solver actually did."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WorkCounters:
    """Tallies of the basic operations performed by a solver run.

    assignments: full or partial variable assignments enumerated
    vectors:     half-list rows handed to the dominating-pair search (only
                 the rows that can be in a dominating pair are listed)
    comparisons: coordinate comparisons inside pair searches and scans
    guesses:     gate-output guesses tried; 0 on every current route
    eq_solves:   equation-system solves; 0 on every current route

    guesses and eq_solves stay so that the CLI counter line and the bench
    CSV keep their columns.
    """

    assignments: int = 0
    vectors: int = 0
    comparisons: int = 0
    guesses: int = 0
    eq_solves: int = 0

    def total(self) -> int:
        return (self.assignments + self.vectors + self.comparisons
                + self.guesses + self.eq_solves)
